// Coverage for the small util pieces not exercised elsewhere: logging,
// stopwatch, file-backed CSV output.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.hpp"
#include "util/csv.hpp"
#include "util/errors.hpp"
#include "util/stopwatch.hpp"

namespace lamps {
namespace {

TEST(Log, LevelFilterGates) {
  const obs::LogSeverity saved = obs::min_severity();
  obs::set_min_severity(obs::LogSeverity::kWarn);
  EXPECT_EQ(obs::min_severity(), obs::LogSeverity::kWarn);
  std::ostringstream sink;
  obs::set_log_sink(&sink);
  obs::emit_plain(obs::LogSeverity::kDebug, "not shown 1");
  obs::emit_plain(obs::LogSeverity::kInfo, "not shown 2");
  obs::emit_plain(obs::LogSeverity::kWarn, "shown 3");
  obs::emit_plain(obs::LogSeverity::kError, "shown 4");
  obs::set_log_sink(nullptr);
  obs::set_min_severity(saved);
  EXPECT_EQ(sink.str(), "[warn] shown 3\n[error] shown 4\n");
}

TEST(Log, LevelsAreOrdered) {
  using obs::LogSeverity;
  EXPECT_LT(static_cast<int>(LogSeverity::kDebug), static_cast<int>(LogSeverity::kInfo));
  EXPECT_LT(static_cast<int>(LogSeverity::kInfo), static_cast<int>(LogSeverity::kWarn));
  EXPECT_LT(static_cast<int>(LogSeverity::kWarn), static_cast<int>(LogSeverity::kError));
}

TEST(Log, ConcurrentLoggingDoesNotCrash) {
  const obs::LogSeverity saved = obs::min_severity();
  obs::set_min_severity(obs::LogSeverity::kError);  // keep the test output quiet
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i)
        obs::emit_plain(obs::LogSeverity::kWarn,
                        "thread " + std::to_string(t) + " line " + std::to_string(i));
    });
  for (auto& th : threads) th.join();
  obs::set_min_severity(saved);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  const double t0 = sw.elapsed_seconds();
  EXPECT_GE(t0, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  const double t1 = sw.elapsed_seconds();
  EXPECT_GT(t1, t0);
  EXPECT_GE(t1, 0.010);
  sw.reset();
  EXPECT_LT(sw.elapsed_seconds(), t1);
}

TEST(CsvFile, OpenWriteReadBack) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "lamps_csv_test.csv").string();
  {
    std::ofstream os = open_csv(path);
    CsvWriter w(os);
    w.row("a", "b");
    w.row(1, 2.5);
  }
  std::ifstream is(path);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "a,b");
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "1,2.5");
  std::remove(path.c_str());
}

TEST(CsvFile, OpenFailureThrows) {
  EXPECT_THROW((void)open_csv("/nonexistent_dir_xyz/file.csv"), std::runtime_error);
}

TEST(FsyncPath, ReadOnlyFileDegradesToBestEffort) {
  // Regression: fsync_path opened files O_WRONLY, so a chmod 0444 artifact
  // (e.g. a journal committed after the operator locked the results tree
  // down) made the reopen fail with EACCES and the commit throw, even
  // though the bytes were fine and the rename would have been atomic.
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "lamps_fsync_ro.txt";
  {
    std::ofstream os(path);
    os << "locked down\n";
  }
  fs::permissions(path, fs::perms::owner_read, fs::perm_options::replace);
  EXPECT_NO_THROW(fsync_path(path.string(), /*directory=*/false));
  fs::permissions(path, fs::perms::owner_all, fs::perm_options::replace);
  fs::remove(path);
}

TEST(FsyncPath, MissingFileStillThrowsMissingDirectoryDoesNot) {
  EXPECT_THROW(fsync_path("/nonexistent_dir_xyz/file.txt", /*directory=*/false),
               InternalError);
  // Directory syncs are best-effort everywhere: they only harden the
  // rename's durability, never its atomicity.
  EXPECT_NO_THROW(fsync_path("/nonexistent_dir_xyz", /*directory=*/true));
}

TEST(AtomicFileTest, CommitIntoDirectoryWithReadOnlyTarget) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "lamps_atomic_ro_dir";
  fs::create_directories(dir);
  const fs::path target = dir / "out.txt";
  {
    std::ofstream os(target);
    os << "old\n";
  }
  // A read-only *previous* artifact must not block the atomic replace.
  fs::permissions(target, fs::perms::owner_read, fs::perm_options::replace);
  {
    AtomicFile f(target.string());
    f.stream() << "new\n";
    EXPECT_NO_THROW(f.commit());
  }
  std::ifstream is(target);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "new");
  is.close();
  fs::permissions(target, fs::perms::owner_all, fs::perm_options::replace);
  fs::remove_all(dir);
}

TEST(AtomicFileTest, UncommittedFileLeavesTargetUntouched) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "lamps_atomic_abandon.txt";
  {
    std::ofstream os(path);
    os << "original\n";
  }
  {
    AtomicFile f(path.string());
    f.stream() << "half-written\n";
    // no commit: destructor must discard the temp file
  }
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  std::ifstream is(path);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "original");
  fs::remove(path);
}

}  // namespace
}  // namespace lamps
