// Tests for job/serialize.h: instance round-trips, the accepted grammar
// (every diagnostic with its text and line number, every lenient form the
// reader takes), and a seeded byte-mutation sweep that no edit can abort.
#include "gtest_compat.h"

#include <cstdio>
#include <string>

#include "dag/builders.h"
#include "gen/fifo_adversary.h"
#include "gen/random_trees.h"
#include "job/serialize.h"
#include "sched/fifo.h"
#include "sim/engine.h"

namespace otsched {
namespace {

bool SameInstance(const Instance& a, const Instance& b) {
  if (a.job_count() != b.job_count()) return false;
  for (JobId i = 0; i < a.job_count(); ++i) {
    const Job& ja = a.job(i);
    const Job& jb = b.job(i);
    if (ja.release() != jb.release()) return false;
    if (ja.dag().node_count() != jb.dag().node_count()) return false;
    if (ja.dag().edge_count() != jb.dag().edge_count()) return false;
    for (NodeId v = 0; v < ja.dag().node_count(); ++v) {
      std::vector<NodeId> ca(ja.dag().children(v).begin(),
                             ja.dag().children(v).end());
      std::vector<NodeId> cb(jb.dag().children(v).begin(),
                             jb.dag().children(v).end());
      std::sort(ca.begin(), ca.end());
      std::sort(cb.begin(), cb.end());
      if (ca != cb) return false;
    }
  }
  return true;
}

// Parses `text`, which must be well formed.
Instance Parse(const std::string& text) {
  std::string error;
  std::optional<Instance> instance = TryInstanceFromText(text, &error);
  EXPECT_TRUE(instance.has_value()) << error;
  return instance.value_or(Instance());
}

TEST(InstanceSerialize, RoundTripBasic) {
  Instance instance;
  instance.add_job(Job(MakeChain(3), 0, "alpha"));
  instance.add_job(Job(MakeStar(4), 7, "beta"));
  instance.set_name("basic pair");
  const Instance loaded = Parse(InstanceToText(instance));
  EXPECT_TRUE(SameInstance(instance, loaded));
  EXPECT_EQ(loaded.name(), "basic pair");
  EXPECT_EQ(loaded.job(0).name(), "alpha");
}

TEST(InstanceSerialize, RoundTripRandomWorkload) {
  Rng rng(5);
  Instance instance;
  for (int i = 0; i < 12; ++i) {
    instance.add_job(Job(MakeTree(static_cast<TreeFamily>(i % 4), 40, rng),
                         3 * i));
  }
  EXPECT_TRUE(SameInstance(instance, Parse(InstanceToText(instance))));
}

TEST(InstanceSerialize, RoundTripPreservesSchedulerBehaviour) {
  // The real contract: a replayed instance produces identical flows.
  LowerBoundSimOptions options;
  options.m = 4;
  options.num_jobs = 10;
  const AdversarialInstance adv = MakeAdversarialInstance(options);
  const Instance loaded = Parse(InstanceToText(adv.instance));

  FifoScheduler a;
  FifoScheduler b;
  EXPECT_EQ(Simulate(adv.instance, 4, a).flows.max_flow,
            Simulate(loaded, 4, b).flows.max_flow);
}

TEST(InstanceSerialize, FileRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/otsched_instance_test.txt";
  Instance instance;
  instance.add_job(Job(MakeCompleteTree(2, 3), 2));
  SaveInstance(instance, path);
  std::string error;
  const std::optional<Instance> loaded = TryLoadInstance(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(SameInstance(instance, *loaded));
  std::remove(path.c_str());
}

TEST(InstanceSerialize, CommentsAndBlanksIgnored) {
  const std::string text =
      "# a comment\notsched-instance-v1\n\nname demo\n"
      "job 3 2 j0  # header comment\n0 1\nend\n";
  const Instance loaded = Parse(text);
  EXPECT_EQ(loaded.job_count(), 1);
  EXPECT_EQ(loaded.job(0).release(), 3);
  EXPECT_EQ(loaded.job(0).work(), 2);
}

TEST(InstanceSerialize, CyclicJobsRejectedWithALineNumber) {
  std::string error;
  EXPECT_FALSE(TryInstanceFromText("otsched-instance-v1\njob 0 1\nend\n"
                                   "job 0 3\n0 1\n1 2\n2 1\nend\n",
                                   &error));
  EXPECT_EQ(error,
            "instance line 8: the job started at line 4 has a directed cycle");
  EXPECT_FALSE(TryInstanceFromText("otsched-instance-v1\njob 0 2\n0 0\nend\n",
                                   &error));
  EXPECT_EQ(error, "instance line 3: edge 0 -> 0 is a self-loop, a directed "
                   "cycle");
}

// The diagnostic TryInstanceFromText reports for `text`, which must not
// parse.
std::string ParseError(const std::string& text) {
  std::string error;
  const std::optional<Instance> instance = TryInstanceFromText(text, &error);
  EXPECT_FALSE(instance.has_value()) << "parsed: " << text;
  return error;
}

constexpr const char* kMagic = "otsched-instance-v1\n";

TEST(InstanceGrammar, EveryDiagnosticNamesItsLine) {
  EXPECT_EQ(ParseError(""), "instance line 0: empty instance file");
  EXPECT_EQ(ParseError("# only a comment\n\n \t\r\n"),
            "instance line 3: empty instance file");
  EXPECT_EQ(ParseError("\nbogus-header v1\n"),
            "instance line 2: bad magic 'bogus-header' "
            "(want otsched-instance-v1)");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 3\n"),
            "instance line 2: job needs release and size");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job\n"),
            "instance line 2: job needs release and size");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job -1 2\nend\n"),
            "instance line 2: bad job header (release -1, size 2)");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 4 -3\nend\n"),
            "instance line 2: bad job header (release 4, size -3)");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 4 0\nend\n"),
            "instance line 2: bad job header (release 4, size 0)");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2\n0 1\n"),
            "instance line 3: unterminated job started at line 2");
  // Trailing blank and comment lines still count.
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2\n0 1\n\n# c\n"),
            "instance line 5: unterminated job started at line 2");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2\n0 x\nend\n"),
            "instance line 3: expected an edge or 'end'");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2\n0\nend\n"),
            "instance line 3: expected an edge or 'end'");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2\n0 2\nend\n"),
            "instance line 3: edge 0 -> 2 is outside the job's 2 nodes");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2\n-1 0\nend\n"),
            "instance line 3: edge -1 -> 0 is outside the job's 2 nodes");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2\n1 1\nend\n"),
            "instance line 3: edge 1 -> 1 is a self-loop, a directed cycle");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2\n0 1\n1 0\nend\n"),
            "instance line 5: the job started at line 2 has a directed cycle");
  EXPECT_EQ(ParseError(std::string(kMagic) + "frob 1\n"),
            "instance line 2: unknown keyword 'frob'");
  EXPECT_EQ(ParseError(std::string(kMagic) + "end\n"),
            "instance line 2: unknown keyword 'end'");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job5 0 1\nend\n"),
            "instance line 2: unknown keyword 'job5'");
}

TEST(InstanceGrammar, LoadInstanceNamesTheFile) {
  std::string error;
  EXPECT_FALSE(TryLoadInstance("/nonexistent/otsched.inst", &error));
  EXPECT_EQ(error, "cannot open /nonexistent/otsched.inst");
  const std::string path = ::testing::TempDir() + "/otsched_grammar.inst";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fputs("otsched-instance-v1\njob 0 2\n0 5\nend\n", file);
  std::fclose(file);
  EXPECT_FALSE(TryLoadInstance(path, &error));
  EXPECT_EQ(error,
            path + ": instance line 3: edge 0 -> 5 is outside the job's 2 nodes");
  std::remove(path.c_str());
}

TEST(InstanceGrammar, LeadingPlusSigns) {
  const Instance loaded =
      Parse(std::string(kMagic) + "job +3 +2\n+0 +1\nend\n");
  ASSERT_EQ(loaded.job_count(), 1);
  EXPECT_EQ(loaded.job(0).release(), 3);
  EXPECT_EQ(loaded.job(0).dag().node_count(), 2);
  EXPECT_EQ(loaded.job(0).dag().edge_count(), 1);
}

TEST(InstanceGrammar, TabsAndCrlf) {
  const Instance loaded = Parse(
      "  otsched-instance-v1 trailing\r\nname demo\r\n"
      "\tjob\t3\t2\tj0\r\n0\t1\r\n\t\r\nend\r\n"
      "job \v 4 \f 1\r\nend\r\n");
  ASSERT_EQ(loaded.job_count(), 2);
  EXPECT_EQ(loaded.job(0).release(), 3);
  EXPECT_EQ(loaded.job(0).name(), "j0");
  EXPECT_EQ(loaded.job(0).dag().edge_count(), 1);
  EXPECT_EQ(loaded.job(1).release(), 4);
  // The name keeps the rest of its line past the leading spaces, less
  // the line's carriage return, so writing it back reads the same.
  EXPECT_EQ(loaded.name(), "demo");
  EXPECT_EQ(Parse(InstanceToText(loaded)).name(), "demo");
}

TEST(InstanceGrammar, TrailingTokensAreIgnored) {
  const Instance loaded = Parse(
      std::string(kMagic) +
      "job 0 3 j0 and more words\n0 1 extra\n1 2x\nend\n"
      "job 5 2extra\nend\n");
  ASSERT_EQ(loaded.job_count(), 2);
  EXPECT_EQ(loaded.job(0).name(), "j0");
  EXPECT_EQ(loaded.job(0).dag().edge_count(), 2);
  EXPECT_EQ(loaded.job(1).release(), 5);
  EXPECT_EQ(loaded.job(1).dag().node_count(), 2);
  EXPECT_EQ(loaded.job(1).name(), "extra");
}

TEST(InstanceGrammar, AnyLineBeginningEndClosesTheJob) {
  const Instance loaded = Parse(
      std::string(kMagic) + "job 0 2\n0 1\nendless\njob 1 1\nend of job\n");
  ASSERT_EQ(loaded.job_count(), 2);
  EXPECT_EQ(loaded.job(0).dag().edge_count(), 1);
  // Only at the start of the line: an indented `end` is a bad edge.
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2\n end\n"),
            "instance line 3: expected an edge or 'end'");
}

TEST(InstanceGrammar, MidLineCommentsAndBlankLines) {
  const Instance loaded = Parse(
      "otsched-instance-v1#magic\nname two words # not this\n"
      "job 3 3 j0#named\n\n0 1 # first\n   \n\t\n1 2#second\n"
      "end# done\n");
  ASSERT_EQ(loaded.job_count(), 1);
  EXPECT_EQ(loaded.name(), "two words ");
  EXPECT_EQ(loaded.job(0).name(), "j0");
  EXPECT_EQ(loaded.job(0).dag().edge_count(), 2);
  // A comment swallows the whole job header.
  EXPECT_EQ(ParseError(std::string(kMagic) + "job # 0 2\nend\n"),
            "instance line 2: job needs release and size");
}

TEST(InstanceGrammar, OverflowAndFloatsAreRejected) {
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2\n0 4294967297\nend\n"),
            "instance line 3: expected an edge or 'end'");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2\n2147483648 0\nend\n"),
            "instance line 3: expected an edge or 'end'");
  EXPECT_EQ(ParseError(std::string(kMagic) +
                       "job 9223372036854775808 2\nend\n"),
            "instance line 2: job needs release and size");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 0 2147483648\nend\n"),
            "instance line 2: job needs release and size");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job 1e3 2\nend\n"),
            "instance line 2: job needs release and size");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job +-1 2\nend\n"),
            "instance line 2: job needs release and size");
  EXPECT_EQ(ParseError(std::string(kMagic) + "job ++1 2\nend\n"),
            "instance line 2: job needs release and size");
  // The largest values still parse.
  const Instance loaded = Parse(
      std::string(kMagic) + "job 9223372036854775807 2\n0 1\nend\n");
  EXPECT_EQ(loaded.job(0).release(), 9223372036854775807);
}

// Applies one seeded single-byte delete, insert or replace to `text`.
std::string Mutate(const std::string& text, Rng& rng) {
  static constexpr char kAlphabet[] = "0123456789 \t\r\n#+-exjobend";
  const std::size_t at = rng.next_below(text.size());
  const char byte =
      rng.next_bool(0.5)
          ? kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)]
          : static_cast<char>(rng.next_below(256));
  std::string mutant = text;
  switch (rng.next_below(3)) {
    case 0:
      mutant.erase(at, 1);
      break;
    case 1:
      mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(at), byte);
      break;
    default:
      mutant[at] = byte;
      break;
  }
  return mutant;
}

TEST(InstanceGrammar, SingleByteMutantsParseOrReportALine) {
  Rng rng(30);
  Instance instance;
  instance.set_name("mutation seed");
  for (int i = 0; i < 20; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    instance.add_job(Job(MakeTree(static_cast<TreeFamily>(i % 4),
                                  static_cast<NodeId>(3 + i % 7), rng),
                         5 * i, name));
  }
  const std::string text = InstanceToText(instance);
  int parsed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string mutant = Mutate(text, rng);
    std::string error;
    const std::optional<Instance> loaded = TryInstanceFromText(mutant, &error);
    if (!loaded.has_value()) {
      EXPECT_EQ(error.rfind("instance line ", 0), 0u)
          << error << "\nfrom:\n" << mutant;
      continue;
    }
    ++parsed;
    const std::string written = InstanceToText(*loaded);
    EXPECT_EQ(InstanceToText(Parse(written)), written) << mutant;
  }
  // Both outcomes occur, so the sweep exercises both paths.
  EXPECT_GT(parsed, 100);
  EXPECT_LT(parsed, 2000);
}

TEST(InstanceSerializeDeath, BadMagicRejected) {
  EXPECT_NE(ParseError("bogus-header\n").find("magic"), std::string::npos);
}

TEST(InstanceSerializeDeath, UnterminatedJobRejected) {
  EXPECT_NE(ParseError("otsched-instance-v1\njob 0 2\n0 1\n")
                .find("unterminated"),
            std::string::npos);
}

}  // namespace
}  // namespace otsched
