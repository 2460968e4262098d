// Compile-only fixture of exec::Guarded<T>, never linked into a test
// binary: tests/exec/guarded_compile.cmake builds it as is, which must
// succeed, and with QRN_GUARDED_UNLOCKED, which must fail because the
// guarded value is reachable only through lock().
#include "exec/guarded.h"

struct Counter {
    int hits = 0;
};

int touch(qrn::exec::Guarded<Counter>& counter) {
#ifdef QRN_GUARDED_UNLOCKED
    return ++counter.value_.hits;
#else
    return ++counter.lock()->hits;
#endif
}
