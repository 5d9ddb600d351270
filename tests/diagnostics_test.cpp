#include "src/util/diagnostics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/spice/fault.h"
#include "src/spice/kernel.h"
#include "src/util/error.h"

namespace ape {
namespace {

TEST(ErrorContext, ChainJoinsOpenFrames) {
  EXPECT_EQ(ErrorContext::chain(), "");
  EXPECT_EQ(ErrorContext::depth(), 0u);
  ErrorContext outer("module");
  {
    ErrorContext inner("component");
    EXPECT_EQ(ErrorContext::chain(), "module -> component");
    EXPECT_EQ(ErrorContext::depth(), 2u);
  }
  EXPECT_EQ(ErrorContext::chain(), "module");
  EXPECT_EQ(ErrorContext::depth(), 1u);
}

TEST(ErrorContext, ApeErrorsCarryTheChain) {
  ErrorContext outer("synthesize_opamp");
  ErrorContext inner("dc('testbench')");
  const Error e("Newton failed");
  EXPECT_EQ(std::string(e.what()),
            "[synthesize_opamp -> dc('testbench')] Newton failed");
  // Subclasses are annotated through the same base constructor.
  const NumericError n("singular");
  EXPECT_EQ(std::string(n.what()),
            "[synthesize_opamp -> dc('testbench')] singular");
}

TEST(ErrorContext, NoChainMeansNoPrefix) {
  const Error e("plain message");
  EXPECT_EQ(std::string(e.what()), "plain message");
}

TEST(ErrorContext, StackIsPerThread) {
  ErrorContext scope("main-thread-frame");
  std::string other_chain = "unset";
  std::thread t([&] { other_chain = ErrorContext::chain(); });
  t.join();
  EXPECT_EQ(other_chain, "");
  EXPECT_EQ(ErrorContext::chain(), "main-thread-frame");
}

// ---------------------------------------------------------------------------
// JobContext: one table over its fields drives the fork and restore checks.

const RunBudget kBudget;
KernelStats g_sink;
spice::FaultInjector g_injector;

struct ContextField {
  const char* name;
  bool follows_fork;                  ///< JobContext::fork() keeps it
  void (*mark)(JobContext&);          ///< give the field a non-default value
  bool (*marked)(const JobContext&);  ///< the field holds that value
};

const ContextField kFields[] = {
    {"frames", true, [](JobContext& c) { c.frames = {"batch[3]"}; },
     [](const JobContext& c) {
       return c.frames == std::vector<std::string>{"batch[3]"};
     }},
    {"budget", true, [](JobContext& c) { c.budget = &kBudget; },
     [](const JobContext& c) { return c.budget == &kBudget; }},
    {"relaxed", true, [](JobContext& c) { c.relaxed = true; },
     [](const JobContext& c) { return c.relaxed; }},
    {"health_mode", true,
     [](JobContext& c) { c.health_mode = NumericHealthMode::Force; },
     [](const JobContext& c) {
       return c.health_mode == NumericHealthMode::Force;
     }},
    {"kernel_sink", false, [](JobContext& c) { c.kernel_sink = &g_sink; },
     [](const JobContext& c) { return c.kernel_sink == &g_sink; }},
    {"fault_injector", false,
     [](JobContext& c) { c.fault_injector = &g_injector; },
     [](const JobContext& c) { return c.fault_injector == &g_injector; }},
};

JobContext all_marked() {
  JobContext c;
  for (const ContextField& f : kFields) f.mark(c);
  return c;
}

/// Which fields of the calling thread's context are marked.
std::vector<char> marked_now() {
  std::vector<char> out;
  for (const ContextField& f : kFields) out.push_back(f.marked(job_context()));
  return out;
}

TEST(JobContext, ForkKeepsOnlyWhatAPoolJobMayShare) {
  ScopedJobContext job(all_marked());
  const JobContext inherited = job_context().fork();
  std::vector<char> raw, pooled;
  std::thread worker([&] {
    raw = marked_now();  // a raw thread starts with an empty context
    ScopedJobContext pool_job(inherited);
    pooled = marked_now();
  });
  worker.join();
  for (size_t i = 0; i < std::size(kFields); ++i) {
    EXPECT_FALSE(raw[i]) << kFields[i].name;
    EXPECT_EQ(bool(pooled[i]), kFields[i].follows_fork) << kFields[i].name;
  }
}

TEST(JobContext, NestedScopesRestoreEveryField) {
  const std::vector<char> none(std::size(kFields), 0);
  const std::vector<char> all(std::size(kFields), 1);
  ASSERT_EQ(marked_now(), none);
  for (size_t i = 0; i < std::size(kFields); ++i) {
    SCOPED_TRACE(kFields[i].name);
    std::vector<char> only(std::size(kFields), 0);
    only[i] = 1;
    {
      // An editing scope changes its one field and keeps the others.
      ScopedJobContext edit([&](JobContext& c) { kFields[i].mark(c); });
      EXPECT_EQ(marked_now(), only);
    }
    EXPECT_EQ(marked_now(), none);
    try {
      ScopedJobContext edit([&](JobContext& c) { kFields[i].mark(c); });
      throw std::runtime_error("unwind");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(marked_now(), none);
  }
  {
    ScopedJobContext outer(all_marked());
    {
      ScopedJobContext inner(JobContext{});
      EXPECT_EQ(marked_now(), none);
    }
    EXPECT_EQ(marked_now(), all);
    try {
      ScopedJobContext inner(JobContext{});
      ErrorContext frame("unwound");
      throw Error("unwind");
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "[unwound] unwind");
    }
    EXPECT_EQ(marked_now(), all);
  }
  EXPECT_EQ(marked_now(), none);
}

// ---------------------------------------------------------------------------

TEST(RunBudget, UnlimitedByDefault) {
  RunBudget b;
  EXPECT_FALSE(b.exhausted());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.charge());
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.evaluations_used(), 1000);
  EXPECT_TRUE(std::isinf(b.seconds_left()));
}

TEST(RunBudget, EvaluationCap) {
  RunBudget b = RunBudget::with_evaluations(3);
  EXPECT_FALSE(b.exhausted());
  EXPECT_TRUE(b.charge());   // 1
  EXPECT_TRUE(b.charge());   // 2
  EXPECT_FALSE(b.charge());  // 3: cap reached
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.evaluations_used(), 3);
}

TEST(RunBudget, ExpiredDeadline) {
  RunBudget b = RunBudget::with_deadline(0.0);
  EXPECT_TRUE(b.exhausted());
  EXPECT_LE(b.seconds_left(), 0.0);
}

TEST(RunBudget, FutureDeadline) {
  RunBudget b = RunBudget::with_deadline(60.0);
  EXPECT_FALSE(b.exhausted());
  EXPECT_GT(b.seconds_left(), 30.0);
  // Charging evaluations does not expire a pure-deadline budget.
  for (int i = 0; i < 100; ++i) b.charge();
  EXPECT_FALSE(b.exhausted());
}

TEST(RunBudget, NestedBudgetKeepsTheEnclosingOne) {
  CancelToken token;
  RunBudget outer = RunBudget::with_deadline(60.0);
  outer.attach_cancel(&token);
  outer.set_max_evaluations(5);
  RunBudget inner = RunBudget::with_deadline(3600.0);
  {
    ScopedBudget outer_scope(outer);
    {
      ScopedBudget inner_scope(inner);
      EXPECT_EQ(job_context().budget, &inner);
      // The earlier, enclosing deadline bounds the nested budget.
      EXPECT_LE(inner.seconds_left(), 60.0);
      EXPECT_GT(inner.seconds_left(), 30.0);
      // Charges reach the enclosing budget, and its cap stops both.
      for (int i = 0; i < 4; ++i) EXPECT_TRUE(inner.charge());
      EXPECT_EQ(exhausted_budget(), nullptr);
      EXPECT_FALSE(inner.charge());
      EXPECT_EQ(inner.evaluations_used(), 5);
      EXPECT_EQ(outer.evaluations_used(), 5);
      EXPECT_EQ(exhausted_budget(), &inner);
      EXPECT_STREQ(inner.exhaust_reason(), "evaluation cap reached");
      // The enclosing token cancels the nested budget, and cancellation
      // is named first.
      token.cancel();
      EXPECT_TRUE(inner.cancelled());
      EXPECT_STREQ(inner.exhaust_reason(), "cancelled");
    }
    EXPECT_EQ(job_context().budget, &outer);
  }
  EXPECT_EQ(job_context().budget, nullptr);
  // Out of scope the link is gone: the nested budget is its own again.
  EXPECT_FALSE(inner.cancelled());
  EXPECT_FALSE(inner.exhausted());
  EXPECT_GT(inner.seconds_left(), 3000.0);
}

TEST(RunBudget, ExpiredEnclosingDeadlineExhaustsTheNestedBudget) {
  RunBudget outer = RunBudget::with_deadline(0.0);
  RunBudget inner;
  ScopedBudget outer_scope(outer);
  ScopedBudget inner_scope(inner);
  EXPECT_TRUE(inner.exhausted());
  EXPECT_STREQ(inner.exhaust_reason(), "deadline exceeded");
  EXPECT_LE(inner.seconds_left(), 0.0);
  EXPECT_EQ(exhausted_budget(), &inner);
}

// ---------------------------------------------------------------------------

TEST(ConvergenceReport, SummaryNamesPlanAndCounters) {
  ConvergenceReport rep;
  rep.converged = true;
  rep.plan = DcPlan::SourceStepping;
  rep.final_gmin = 1e-12;
  rep.gmin_rungs_completed = 11;
  rep.source_steps_completed = 6;
  rep.newton_iterations = 42;
  rep.lu_failures = 1;
  const std::string s = rep.summary();
  EXPECT_NE(s.find("converged"), std::string::npos);
  EXPECT_NE(s.find("source-stepping"), std::string::npos);
  EXPECT_NE(s.find("rungs=11"), std::string::npos);
  EXPECT_NE(s.find("src_steps=6"), std::string::npos);
  EXPECT_NE(s.find("newton_iters=42"), std::string::npos);
  EXPECT_NE(s.find("lu_failures=1"), std::string::npos);
}

TEST(ConvergenceReport, FailedSummary) {
  ConvergenceReport rep;
  const std::string s = rep.summary();
  EXPECT_NE(s.find("FAILED"), std::string::npos);
  EXPECT_NE(s.find("plan=none"), std::string::npos);
}

}  // namespace
}  // namespace ape
