// using-namespace-header: a using-directive in a source file is local to
// it. Clean.
#include <vector>

using namespace std;

std::size_t count(const vector<int>& values) { return values.size(); }
