// naked-new: each new and delete expression in churn() is a finding.
// Deleted functions, allocation-function declarations and the <new>
// header are not.
#include <cstddef>
#include <new>

struct Widget {
    Widget() = default;
    Widget(const Widget&) = delete;
    Widget& operator=(const Widget&) = delete;
    static void* operator new(std::size_t size);
    static void operator delete(void* p);
};

void churn(int* p, int* q) {
    Widget* w = new Widget();
    delete w;
    delete p;
    delete[] q;
}
