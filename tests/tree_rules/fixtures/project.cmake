# The fixture tree's build, copied in as its CMakeLists.txt by
# ../run_fixtures.cmake. Library code (src/, minus *_main.cpp) is archived
# into a lib*.a as in the real tree; programs and tests are objects only,
# since nothing here is linked.
cmake_minimum_required(VERSION 3.16)
project(tree_rules_fixtures LANGUAGES CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_EXPORT_COMPILE_COMMANDS ON)

file(GLOB_RECURSE library_sources src/*.cpp)
list(FILTER library_sources EXCLUDE REGEX "_main\\.cpp$")
add_library(fixture_library STATIC ${library_sources})

file(GLOB_RECURSE program_sources
  src/*_main.cpp tests/*.cpp bench/*.cpp examples/*.cpp)
add_library(fixture_programs OBJECT ${program_sources})
