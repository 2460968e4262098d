// using-namespace-header: a using-directive in a header leaks into every
// includer (finding); a using-declaration does not.
#pragma once
#include <vector>

using namespace std;
using std::vector;
