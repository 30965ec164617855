/**
 * @file
 * Temporary file names private to one test process and one test.
 *
 * gtest_discover_tests registers every test case as its own ctest
 * entry, so `ctest -j` runs many cases of one binary at once, and two
 * build trees may run their suites side by side in one temp
 * directory. A fixed name such as TempDir() + "midmark.ckpt" lets
 * those processes overwrite each other's files mid-test. tmpPath()
 * builds every name from the pid and the running test's full name,
 * so no two concurrent cases can share a file.
 */

#ifndef HWGC_TESTS_TMP_PATH_H
#define HWGC_TESTS_TMP_PATH_H

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include <unistd.h>

namespace hwgc
{

/**
 * TempDir() + "<pid>-<Suite>.<Test>-<name>". @p name tells apart the
 * files of one test. Outside a running test the test part reads
 * "no-test".
 */
inline std::string
tmpPath(const std::string &name)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info == nullptr
        ? std::string("no-test")
        : std::string(info->test_suite_name()) + "." + info->name();
    // Parameterized suites and cases carry '/', a path separator.
    std::replace(test.begin(), test.end(), '/', '_');
    return ::testing::TempDir() + std::to_string(::getpid()) + "-" + test +
        "-" + name;
}

} // namespace hwgc

#endif // HWGC_TESTS_TMP_PATH_H
