// Banned names in comments, strings and raw strings are prose, never
// calls: std::stod(s), atoi, rand(), std::random_device, std::thread,
// std::cout, fread, fsync(fd), new int, delete p, using namespace std;
/* throw std::invalid_argument(""); parallel_for(j, n, [&] { Rng rng(seed); }); */
const char* kProse =
    "std::stod(s) atoi rand() std::thread std::cout fread fsync(fd) new int delete p";
const char* kRawProse = R"md(
throw std::out_of_range("");
parallel_for(jobs, n, [&](auto) { Rng rng(seed); });
// qrn:dispatcher(begin)
)md";
