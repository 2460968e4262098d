// A header whose comment says using namespace std; is clean.
#pragma once

inline const char* kHeaderProse = "using namespace std;";
