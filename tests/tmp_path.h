/**
 * @file
 * Temporary file names private to one test process and one test.
 *
 * gtest_discover_tests registers every test case as its own ctest
 * entry, so `ctest -j` runs many cases of one binary at once, and two
 * build trees may run their suites side by side in one temp
 * directory. A fixed name such as TempDir() + "midmark.ckpt" lets
 * those processes overwrite each other's files mid-test. tmpPath()
 * puts every file in a directory of the test process's own, named
 * after the running test, so no two concurrent cases can share a
 * file, and the directory goes away with everything in it when that
 * process exits.
 */

#ifndef HWGC_TESTS_TMP_PATH_H
#define HWGC_TESTS_TMP_PATH_H

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace hwgc
{

/**
 * TempDir() + "hwgc-<pid>/", created on first use and removed at the
 * exit of the process that created it. A death test's child inherits
 * the directory but not its ownership, so a child that exits through
 * fatal() leaves the parent's files in place.
 */
class ProcessTmpDir
{
  public:
    static const std::string &
    path()
    {
        static const ProcessTmpDir dir;
        return dir.path_;
    }

    ProcessTmpDir(const ProcessTmpDir &) = delete;
    ProcessTmpDir &operator=(const ProcessTmpDir &) = delete;

    ~ProcessTmpDir()
    {
        if (::getpid() == owner_) {
            std::error_code ec;
            std::filesystem::remove_all(path_, ec);
        }
    }

  private:
    ProcessTmpDir()
    {
        std::string base = ::testing::TempDir();
        if (!base.empty() && base.back() != '/') {
            base += '/';
        }
        path_ = base + "hwgc-" + std::to_string(owner_) + "/";
        std::filesystem::create_directories(path_);
    }

    const pid_t owner_ = ::getpid();
    std::string path_;
};

/**
 * ProcessTmpDir::path() + "<Suite>.<Test>-<name>". @p name tells
 * apart the files of one test. Outside a running test the test part
 * reads "no-test".
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
    return ProcessTmpDir::path() + test + "-" + name;
}

} // namespace hwgc

#endif // HWGC_TESTS_TMP_PATH_H
