// Tests for the fault-tolerance substrate: the error taxonomy, cooperative
// cancellation, atomic output files and the experiment journal.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "exp/journal.hpp"
#include "util/cancel.hpp"
#include "util/csv.hpp"
#include "util/errors.hpp"

namespace lamps {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- taxonomy --

TEST(Errors, CodesRoundTripThroughWireNames) {
  for (const ErrorCode c :
       {ErrorCode::kNone, ErrorCode::kIniParse, ErrorCode::kIniValue, ErrorCode::kStgParse,
        ErrorCode::kGraphStructure, ErrorCode::kConfig, ErrorCode::kScheduleInvalid,
        ErrorCode::kCellTimeout, ErrorCode::kCancelled, ErrorCode::kIo,
        ErrorCode::kInternal}) {
    EXPECT_EQ(error_code_from_string(to_string(c)), c) << to_string(c);
    EXPECT_EQ(to_string(c).substr(0, 2), "E_");
  }
  EXPECT_EQ(error_code_from_string("no-such-code"), ErrorCode::kInternal);
}

TEST(Errors, ExitCodesFollowTheDocumentedMap) {
  for (const ErrorCode c : {ErrorCode::kIniParse, ErrorCode::kIniValue,
                            ErrorCode::kStgParse, ErrorCode::kGraphStructure,
                            ErrorCode::kConfig})
    EXPECT_EQ(exit_code_for(c), 2) << to_string(c);
  EXPECT_EQ(exit_code_for(ErrorCode::kScheduleInvalid), 3);
  EXPECT_EQ(exit_code_for(ErrorCode::kCellTimeout), 4);
  EXPECT_EQ(exit_code_for(ErrorCode::kCancelled), 4);
  EXPECT_EQ(exit_code_for(ErrorCode::kIo), 5);
  EXPECT_EQ(exit_code_for(ErrorCode::kInternal), 1);
  EXPECT_EQ(kExitPartialFailure, 6);
}

TEST(Errors, WhatComposesCodeContextAndHint) {
  const InputError e(ErrorCode::kStgParse, "negative weight", "f.stg:7", "fix the file");
  EXPECT_EQ(e.code(), ErrorCode::kStgParse);
  EXPECT_EQ(e.message(), "negative weight");
  EXPECT_EQ(e.context(), "f.stg:7");
  EXPECT_EQ(e.hint(), "fix the file");
  EXPECT_FALSE(e.retryable());
  const std::string what = e.what();
  EXPECT_NE(what.find("E_STG_PARSE"), std::string::npos);
  EXPECT_NE(what.find("negative weight"), std::string::npos);
  EXPECT_NE(what.find("f.stg:7"), std::string::npos);
  EXPECT_NE(what.find("fix the file"), std::string::npos);
  // Bare errors stay bare.
  EXPECT_STREQ(Error(ErrorCode::kInternal, "boom").what(), "E_INTERNAL: boom");
  EXPECT_TRUE(Error(ErrorCode::kIo, "disk", {}, {}, /*retryable=*/true).retryable());
}

TEST(Errors, SubclassesAreCatchableAsError) {
  try {
    throw ValidationError(ErrorCode::kScheduleInvalid, "overlap on proc 2");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kScheduleInvalid);
  }
}

// --------------------------------------------------------- cancellation --

TEST(Cancel, TokenHonorsExplicitCancel) {
  CancelToken token;  // no deadline
  EXPECT_FALSE(token.expired());
  EXPECT_NO_THROW(token.check("test"));
  token.cancel();
  EXPECT_TRUE(token.expired());
  try {
    token.check("test/loop");
    FAIL() << "cancelled token passed check";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    EXPECT_EQ(e.context(), "test/loop");
  }
}

TEST(Cancel, TokenHonorsDeadline) {
  CancelToken token(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  try {
    token.check("test");
    FAIL() << "expired deadline passed check";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCellTimeout);
  }
}

TEST(Cancel, ScopeInstallsAndRestores) {
  EXPECT_EQ(current_cancel_token(), nullptr);
  CancelToken outer;
  {
    CancelScope a(&outer);
    EXPECT_EQ(current_cancel_token(), &outer);
    CancelToken inner;
    {
      CancelScope b(&inner);
      EXPECT_EQ(current_cancel_token(), &inner);
    }
    EXPECT_EQ(current_cancel_token(), &outer);
  }
  EXPECT_EQ(current_cancel_token(), nullptr);
}

TEST(Cancel, CheckpointIsNoOpWithoutToken) {
  for (unsigned i = 0; i < 3 * kCancelPollStride; ++i)
    EXPECT_NO_THROW(cancel_checkpoint("test"));
}

TEST(Cancel, CheckpointSeesCancellationWithinOneStride) {
  CancelToken token;
  CancelScope scope(&token);
  token.cancel();
  unsigned calls = 0;
  try {
    for (;; ++calls) cancel_checkpoint("test");
  } catch (const TimeoutError&) {
  }
  EXPECT_LE(calls, kCancelPollStride);
}

// ----------------------------------------------------------- AtomicFile --

TEST(AtomicFile, CommitMakesContentVisibleAtomically) {
  const fs::path dir = fs::temp_directory_path() / "lamps_atomicfile_test";
  fs::create_directories(dir);
  const std::string path = (dir / "out.csv").string();
  {
    std::ofstream prev(path);
    prev << "old\n";
  }
  {
    AtomicFile file(path);
    file.stream() << "new content\n";
    // Not yet committed: readers still see the old file.
    std::ifstream is(path);
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "old");
    file.commit();
  }
  std::ifstream is(path);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "new content");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

TEST(AtomicFile, AbandonedWriterLeavesTargetUntouched) {
  const fs::path dir = fs::temp_directory_path() / "lamps_atomicfile_test2";
  fs::create_directories(dir);
  const std::string path = (dir / "out.csv").string();
  {
    AtomicFile file(path);
    file.stream() << "half-written";
    // no commit(): destructor must clean up the temp file
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

// -------------------------------------------------------------- journal --

exp::JournalRecord sample_record() {
  exp::JournalRecord rec;
  rec.tag = "coarse";
  rec.group = "50";
  rec.graph = "rand50_3";
  rec.deadline_factor = 1.5;
  rec.strategy = "LAMPS+PS";
  rec.outcome = core::CellOutcome::kOk;
  rec.error = ErrorCode::kNone;
  rec.retries = 1;
  rec.feasible = true;
  rec.energy_j = 0.123456789012345678;  // exercises %.17g round-trip
  rec.num_procs = 7;
  rec.level_index = 3;
  rec.schedules_computed = 42;
  rec.parallelism = 5.0294117647058822;
  rec.total_work = 740900000;
  rec.seconds = 4.3587999999999997e-05;
  return rec;
}

TEST(Journal, LineRoundTripsBitExactly) {
  const exp::JournalRecord rec = sample_record();
  const std::string line = exp::journal_line(rec);
  const auto parsed = exp::parse_journal_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tag, rec.tag);
  EXPECT_EQ(parsed->graph, rec.graph);
  EXPECT_EQ(parsed->strategy, rec.strategy);
  EXPECT_EQ(parsed->outcome, rec.outcome);
  EXPECT_EQ(parsed->retries, rec.retries);
  // Bit-exact doubles, not approximately-equal ones: resume must replay the
  // identical value.
  EXPECT_EQ(parsed->energy_j, rec.energy_j);
  EXPECT_EQ(parsed->parallelism, rec.parallelism);
  EXPECT_EQ(parsed->seconds, rec.seconds);
  EXPECT_EQ(parsed->total_work, rec.total_work);
  // Serializing the parse yields the same bytes.
  EXPECT_EQ(exp::journal_line(*parsed), line);
}

TEST(Journal, MessagesWithSpecialCharactersRoundTrip) {
  exp::JournalRecord rec = sample_record();
  rec.outcome = core::CellOutcome::kFailed;
  rec.error = ErrorCode::kScheduleInvalid;
  rec.message = "task \"a,b\" overlaps\n\tproc 2 \\ slot 1";
  const auto parsed = exp::parse_journal_line(exp::journal_line(rec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->message, rec.message);
  EXPECT_EQ(parsed->error, ErrorCode::kScheduleInvalid);
}

TEST(Journal, RejectsCorruptionAndTruncation) {
  const std::string line = exp::journal_line(sample_record());
  // Truncation (SIGKILL mid-write) at any point must be rejected.
  for (const std::size_t len : {line.size() - 1, line.size() / 2, std::size_t{1}})
    EXPECT_FALSE(exp::parse_journal_line(line.substr(0, len)).has_value()) << len;
  // A flipped payload byte passes JSON scanning but fails the digest.
  std::string tampered = line;
  const auto pos = tampered.find("rand50_3");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos] = 'x';
  EXPECT_FALSE(exp::parse_journal_line(tampered).has_value());
  EXPECT_FALSE(exp::parse_journal_line("not json at all").has_value());
  EXPECT_FALSE(exp::parse_journal_line("{}").has_value());
}

// Lines written before the journal shared util/json.hpp's escaper, which
// spelled the control bytes 0x08 and 0x0c \u0008 and \u000c (now \b and
// \f).  The first holds a quote, a backslash, \n, \t and \u0001.
constexpr const char* kEarlierLine =
    R"({"v":1,"tag":"coarse","group":"50","graph":"rand50_3","factor":1.5,)"
    R"("strategy":"LAMPS+PS","outcome":"FAIL","error":"E_SCHEDULE_INVALID",)"
    R"("message":"task \"a\" \\ b\n\tc\u0001d","retries":1,"feasible":1,)"
    R"("energy_j":0.12345678901234568,"procs":7,"level":3,"schedules":42,)"
    R"("parallelism":5.0294117647058822,"total_work":740900000,)"
    R"("seconds":4.3587999999999997e-05,"digest":"c20a539eaf1a51de"})";
constexpr const char* kEarlierU0008Line =
    R"({"v":1,"tag":"coarse","group":"50","graph":"rand50_3","factor":1.5,)"
    R"("strategy":"LAMPS+PS","outcome":"FAIL","error":"E_SCHEDULE_INVALID",)"
    R"("message":"slot\u00082","retries":1,"feasible":1,)"
    R"("energy_j":0.12345678901234568,"procs":7,"level":3,"schedules":42,)"
    R"("parallelism":5.0294117647058822,"total_work":740900000,)"
    R"("seconds":4.3587999999999997e-05,"digest":"db86ce17dea89b4c"})";

TEST(Journal, EarlierLineLoadsAndReserializesToTheSameBytes) {
  const auto parsed = exp::parse_journal_line(kEarlierLine);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->message, "task \"a\" \\ b\n\tc\x01" "d");
  EXPECT_EQ(parsed->error, ErrorCode::kScheduleInvalid);
  EXPECT_EQ(exp::journal_line(*parsed), kEarlierLine);
}

TEST(Journal, TotalWorkAtTwoTo64MinusOneRoundTrips) {
  exp::JournalRecord rec = sample_record();
  rec.total_work = std::numeric_limits<std::uint64_t>::max();
  const std::string line = exp::journal_line(rec);
  EXPECT_NE(line.find("\"total_work\":18446744073709551615,"), std::string::npos);
  const auto parsed = exp::parse_journal_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->total_work, rec.total_work);
  EXPECT_EQ(exp::journal_line(*parsed), line);
}

// A line sealed over \u0008 no longer re-serializes to its sealed bytes, so
// it fails the seal: load drops it instead of misreading it, and with no
// record for its key the resumed sweep re-runs the cell.  The re-run's
// record, written with \b, loads back to the same message bytes.
TEST(Journal, EarlierU0008LineIsDroppedAndItsCellReruns) {
  EXPECT_FALSE(exp::parse_journal_line(kEarlierU0008Line).has_value());

  const fs::path dir = fs::temp_directory_path() / "lamps_journal_u0008_test";
  fs::create_directories(dir);
  const std::string path = (dir / "j.jsonl").string();
  exp::JournalRecord other = sample_record();
  other.graph = "rand50_4";
  std::ofstream(path, std::ios::trunc) << kEarlierU0008Line << '\n'
                                       << exp::journal_line(other) << '\n';
  const exp::JournalContents contents = exp::Journal::load(path);
  EXPECT_EQ(contents.lines_total, 2u);
  EXPECT_EQ(contents.lines_dropped, 1u);
  EXPECT_EQ(contents.records.size(), 1u);
  EXPECT_EQ(contents.records.count(
                exp::journal_key("coarse", "50", "rand50_3", 1.5, "LAMPS+PS")),
            0u);
  fs::remove_all(dir);

  exp::JournalRecord rerun = sample_record();
  rerun.outcome = core::CellOutcome::kFailed;
  rerun.error = ErrorCode::kScheduleInvalid;
  rerun.message = "slot\b2";
  const std::string line = exp::journal_line(rerun);
  EXPECT_NE(line.find(R"("message":"slot\b2")"), std::string::npos);
  const auto parsed = exp::parse_journal_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->message, rerun.message);
}

TEST(Journal, AppendLoadRoundTripAndLaterRecordWins) {
  const fs::path dir = fs::temp_directory_path() / "lamps_journal_test";
  fs::create_directories(dir);
  const std::string path = (dir / "j.jsonl").string();

  exp::JournalRecord first = sample_record();
  first.outcome = core::CellOutcome::kTimeout;
  first.error = ErrorCode::kCellTimeout;
  exp::JournalRecord second = sample_record();  // same cell, now OK
  exp::JournalRecord other = sample_record();
  other.graph = "rand50_4";
  {
    exp::Journal journal;
    journal.open(path, /*truncate=*/true);
    journal.append(first);
    journal.append(other);
    journal.append(second);
  }
  const exp::JournalContents contents = exp::Journal::load(path);
  EXPECT_EQ(contents.lines_total, 3u);
  EXPECT_EQ(contents.lines_dropped, 0u);
  ASSERT_EQ(contents.records.size(), 2u);  // first/second share a key
  const auto it = contents.records.find(
      exp::journal_key("coarse", "50", "rand50_3", 1.5, "LAMPS+PS"));
  ASSERT_NE(it, contents.records.end());
  EXPECT_EQ(it->second.outcome, core::CellOutcome::kOk) << "later record must win";

  // A truncated trailing line is dropped, the rest survives.
  std::ofstream(path, std::ios::app) << exp::journal_line(other).substr(0, 30);
  const exp::JournalContents partial = exp::Journal::load(path);
  EXPECT_EQ(partial.lines_dropped, 1u);
  EXPECT_EQ(partial.records.size(), 2u);

  EXPECT_TRUE(exp::Journal::load((dir / "missing.jsonl").string()).records.empty());
  fs::remove_all(dir);
}

TEST(Journal, RestoreInstanceInvertsMakeRecord) {
  core::InstanceResult r;
  r.group = "100";
  r.graph_name = "rand100_7";
  r.deadline_factor = 4.0;
  r.strategy = core::StrategyKind::kLimitMf;
  r.feasible = true;
  r.energy = Joules{0.375};
  r.num_procs = 5;
  r.level_index = 2;
  r.schedules_computed = 11;
  r.parallelism = 3.25;
  r.total_work = 12345;
  r.seconds = 0.5;
  const core::InstanceResult back =
      exp::restore_instance(exp::make_journal_record("fine", r));
  EXPECT_EQ(back.group, r.group);
  EXPECT_EQ(back.graph_name, r.graph_name);
  EXPECT_EQ(back.strategy, r.strategy);
  EXPECT_EQ(back.energy.value(), r.energy.value());
  EXPECT_EQ(back.seconds, r.seconds);
  EXPECT_EQ(back.outcome, core::CellOutcome::kOk);
  EXPECT_TRUE(back.from_journal);
  EXPECT_EQ(exp::journal_key("fine", back), exp::journal_key("fine", r));
}

}  // namespace
}  // namespace lamps
