# Library-users guard, driven by CTest:
#   cmake -DREPO_DIR=<repo> -P check_library_users.cmake
# Every src/ header must be included, by its "dir/name.hh" path, from
# some file under src/, tools/, examples/ or bench/ other than its own
# .cc. Code that only tests use belongs in tests/support/, not in the
# library.

cmake_minimum_required(VERSION 3.16)

if(NOT REPO_DIR)
  message(FATAL_ERROR "pass -DREPO_DIR=<path to the repository>")
endif()

set(users)
foreach(dir src tools examples bench)
  file(GLOB_RECURSE found ${REPO_DIR}/${dir}/*.cc ${REPO_DIR}/${dir}/*.hh)
  list(APPEND users ${found})
endforeach()

# Every quoted include, except a src/ unit's include of its own header.
set(included)
foreach(file ${users})
  file(RELATIVE_PATH rel ${REPO_DIR} ${file})
  file(STRINGS ${file} lines REGEX "^#include \"[^\"]+\"")
  foreach(line ${lines})
    string(REGEX REPLACE "^#include \"([^\"]+)\".*" "\\1" path "${line}")
    string(REGEX REPLACE "\\.hh$" ".cc" own "src/${path}")
    if(NOT rel STREQUAL own)
      list(APPEND included ${path})
    endif()
  endforeach()
endforeach()
list(REMOVE_DUPLICATES included)

file(GLOB_RECURSE headers RELATIVE ${REPO_DIR}/src ${REPO_DIR}/src/*.hh)
set(failures 0)
foreach(header ${headers})
  if(NOT header IN_LIST included)
    math(EXPR failures "${failures} + 1")
    message(WARNING "src/${header} is included by no file under src/, "
                    "tools/, examples/ or bench/ but its own .cc; "
                    "move test-only code to tests/support/")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} header(s) without a library user")
endif()
message(STATUS "library users: ok")
