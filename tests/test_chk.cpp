// Corruption-injection tests for the checked-build subsystem (src/chk/).
// Each test hands a validator a deliberately broken object — unsorted CSR
// row, out-of-bounds column, broken CSC mirror, drifted snapshot counts,
// epoch regression — and asserts the corresponding check fires with
// chk::CheckError. The validators are always compiled, so these run in
// every build lane; only the overflow tests need BFC_CHECKED=ON (the
// checked helpers collapse to plain arithmetic otherwise) and skip when
// the checks are compiled out.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "chk/check.hpp"
#include "chk/checked_math.hpp"
#include "chk/validate.hpp"
#include "count/baselines.hpp"
#include "count/dynamic.hpp"
#include "gen/generators.hpp"
#include "graph/bipartite_graph.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "svc/snapshot.hpp"

namespace bfc {
namespace {

constexpr count_t kMax = std::numeric_limits<count_t>::max();
constexpr count_t kMin = std::numeric_limits<count_t>::min();

// --- raw CSR array checks ---------------------------------------------

struct RawCsr {
  vidx_t rows = 3;
  vidx_t cols = 4;
  std::vector<offset_t> row_ptr{0, 2, 2, 4};
  std::vector<vidx_t> col_idx{0, 3, 1, 2};
};

void validate_raw(const RawCsr& r) {
  chk::validate_csr_arrays(r.rows, r.cols, r.row_ptr, r.col_idx);
}

TEST(ChkCsrArrays, AcceptsWellFormed) {
  EXPECT_NO_THROW(validate_raw(RawCsr{}));
  EXPECT_NO_THROW(chk::validate_csr_arrays(0, 0, std::vector<offset_t>{0},
                                           std::vector<vidx_t>{}));
}

TEST(ChkCsrArrays, FiresOnWrongRowPtrLength) {
  RawCsr r;
  r.row_ptr = {0, 2, 4};  // rows+1 == 4 expected
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnNonzeroFront) {
  RawCsr r;
  r.row_ptr = {1, 2, 2, 4};
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnNonMonotoneRowPtr) {
  RawCsr r;
  r.row_ptr = {0, 3, 2, 4};
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnNnzMismatch) {
  RawCsr r;
  r.row_ptr = {0, 2, 2, 3};  // back() != col_idx.size()
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnUnsortedRow) {
  RawCsr r;
  r.col_idx = {3, 0, 1, 2};  // row 0 descending
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnDuplicateColumn) {
  RawCsr r;
  r.col_idx = {0, 0, 1, 2};
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

TEST(ChkCsrArrays, FiresOnOutOfRangeColumn) {
  RawCsr r;
  r.col_idx = {0, 4, 1, 2};  // cols == 4, so 4 is out of range
  EXPECT_THROW(validate_raw(r), chk::CheckError);
  r.col_idx = {-1, 3, 1, 2};
  EXPECT_THROW(validate_raw(r), chk::CheckError);
}

// The CsrPattern constructor routes through the same core, so corrupt
// arrays can never become a live pattern (and the thrown CheckError still
// IS-A std::invalid_argument for the pre-existing API-boundary tests).
TEST(ChkCsrArrays, ConstructorRejectsCorruptArrays) {
  EXPECT_THROW(sparse::CsrPattern(2, 3, {0, 2, 2}, {1, 0}), chk::CheckError);
  EXPECT_THROW(sparse::CsrPattern(2, 3, {0, 2, 2}, {1, 0}),
               std::invalid_argument);
}

// --- pattern / counts / builder / mirror ------------------------------

TEST(ChkValidate, AcceptsPatternCountsAndBuilder) {
  const sparse::CsrPattern p(3, 4, {0, 2, 2, 4}, {0, 3, 1, 2});
  EXPECT_NO_THROW(chk::validate(p));

  sparse::CsrCounts c;
  c.rows = 2;
  c.cols = 2;
  c.row_ptr = {0, 1, 2};
  c.col_idx = {1, 0};
  c.values = {7, 9};
  EXPECT_NO_THROW(chk::validate(c));

  sparse::CooBuilder b(2, 2);
  b.add(0, 1);
  b.add(1, 0);
  EXPECT_NO_THROW(chk::validate(b));
}

TEST(ChkValidate, FiresOnCountsValueSizeDrift) {
  sparse::CsrCounts c;
  c.rows = 2;
  c.cols = 2;
  c.row_ptr = {0, 1, 2};
  c.col_idx = {1, 0};
  c.values = {7};  // nnz == 2 but only one value
  EXPECT_THROW(chk::validate(c), chk::CheckError);
}

TEST(ChkMirror, AcceptsTrueTranspose) {
  const sparse::CsrPattern a(2, 3, {0, 2, 3}, {0, 2, 1});
  EXPECT_NO_THROW(chk::validate_mirror(a, a.transpose()));
}

TEST(ChkMirror, FiresOnShapeMismatch) {
  const sparse::CsrPattern a(2, 3, {0, 2, 3}, {0, 2, 1});
  const sparse::CsrPattern not_swapped(2, 3, {0, 2, 3}, {0, 2, 1});
  EXPECT_THROW(chk::validate_mirror(a, not_swapped), chk::CheckError);
}

TEST(ChkMirror, FiresOnBrokenMirror) {
  // Same shape and nnz as the true transpose, but the identity pattern is
  // not the mirror of the anti-diagonal one.
  const sparse::CsrPattern a(2, 2, {0, 1, 2}, {1, 0});
  const sparse::CsrPattern wrong(2, 2, {0, 1, 2}, {0, 1});
  EXPECT_THROW(chk::validate_mirror(a, wrong), chk::CheckError);
}

TEST(ChkGraph, AcceptsGeneratedGraphs) {
  EXPECT_NO_THROW(chk::validate(gen::erdos_renyi(20, 30, 0.2, 7)));
  EXPECT_NO_THROW(chk::validate(
      graph::BipartiteGraph(sparse::CsrPattern::empty(5, 9))));
}

// --- dynamic counter and serving snapshots ----------------------------

count::DynamicButterflyCounter make_counter() {
  count::DynamicButterflyCounter c(3, 3);
  c.insert(0, 0);
  c.insert(0, 1);
  c.insert(1, 0);
  c.insert(1, 1);  // completes one butterfly
  c.insert(2, 2);
  return c;
}

TEST(ChkDynamic, AcceptsConsistentCounter) {
  const auto c = make_counter();
  ASSERT_EQ(c.butterflies(), 1);
  EXPECT_NO_THROW(chk::validate(c));
}

svc::GraphSnapshot make_snapshot() {
  const auto c = make_counter();
  svc::GraphSnapshot s;
  s.epoch = 5;
  s.graph = c.to_graph();
  s.butterflies = c.butterflies();
  s.edges = c.edge_count();
  return s;
}

TEST(ChkSnapshot, AcceptsConsistentSnapshot) {
  EXPECT_NO_THROW(chk::validate(make_snapshot()));
}

TEST(ChkSnapshot, FiresOnButterflyCountDrift) {
  auto s = make_snapshot();
  s.butterflies += 3;  // incremental total no longer matches a recount
  EXPECT_THROW(chk::validate(s), chk::CheckError);
}

TEST(ChkSnapshot, FiresOnEdgeCountDrift) {
  auto s = make_snapshot();
  s.edges -= 1;
  EXPECT_THROW(chk::validate(s), chk::CheckError);
}

TEST(ChkSnapshot, EpochMustAdvanceByOne) {
  const auto prev = make_snapshot();
  auto next = make_snapshot();
  next.epoch = prev.epoch + 1;
  EXPECT_NO_THROW(chk::validate_epoch_transition(prev, next));
  next.epoch = prev.epoch;  // stalled
  EXPECT_THROW(chk::validate_epoch_transition(prev, next), chk::CheckError);
  next.epoch = prev.epoch + 2;  // skipped
  EXPECT_THROW(chk::validate_epoch_transition(prev, next), chk::CheckError);
}

// --- exact failure text -----------------------------------------------
// The validators format their messages only after a check has failed; the
// text a caller sees must stay byte-identical to the eager formatting it
// replaced ("validation failed: <what> at row <r>").

/// what() of the CheckError thrown by `fn`; fails the test if none is.
template <typename Fn>
std::string check_error_text(Fn&& fn) {
  try {
    fn();
  } catch (const chk::CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected chk::CheckError";
  return {};
}

TEST(ChkFailureText, UnsortedRowNamesTheRow) {
  RawCsr r;
  r.col_idx = {0, 3, 2, 1};  // row 2 holds {2, 1}
  EXPECT_EQ(check_error_text([&] { validate_raw(r); }),
            "validation failed: csr: row not sorted/unique at row 2");
}

TEST(ChkFailureText, OutOfRangeColumnNamesTheRow) {
  RawCsr r;
  r.col_idx = {0, 3, 1, 4};  // cols == 4
  EXPECT_EQ(check_error_text([&] { validate_raw(r); }),
            "validation failed: csr: column index out of range at row 2");
}

TEST(ChkFailureText, NonMonotoneRowPtrNamesTheRow) {
  RawCsr r;
  r.row_ptr = {0, 2, 1, 4};  // row 1 would span [2, 1)
  EXPECT_EQ(check_error_text([&] { validate_raw(r); }),
            "validation failed: csr: row_ptr not monotone at row 1");
}

TEST(ChkFailureText, ConstructorCarriesTheSameText) {
  EXPECT_EQ(check_error_text([] {
              (void)sparse::CsrPattern(2, 3, {0, 2, 2}, {1, 0});
            }),
            "validation failed: csr: row not sorted/unique at row 0");
}

TEST(ChkFailureText, MirrorEdgeMissingFromTransposeNamesTheRow) {
  // a = {(0,0), (1,2)}; `wrong` has the right shape and nnz but holds
  // (1,1) where the transpose needs (2,1).
  const sparse::CsrPattern a(2, 3, {0, 1, 2}, {0, 2});
  const sparse::CsrPattern wrong(3, 2, {0, 1, 2, 2}, {0, 1});
  EXPECT_EQ(check_error_text([&] { chk::validate_mirror(a, wrong); }),
            "validation failed: mirror: edge missing from transpose at row 1");
}

TEST(ChkFailureText, ShardRangeChecksNameTheRowAndTheRange) {
  const graph::BipartiteGraph g(
      sparse::CsrPattern(4, 2, {0, 1, 1, 1, 2}, {0, 1}));
  EXPECT_NO_THROW(chk::validate_shard_range(g, 0, 4));
  EXPECT_EQ(check_error_text([&] { chk::validate_shard_range(g, 0, 2); }),
            "validation failed: shard graph: edge on a V1 vertex outside "
            "the owned range at row 3");
  EXPECT_EQ(check_error_text([&] { chk::validate_shard_range(g, 2, 5); }),
            "validation failed: shard graph: owned range [2, 5) not inside "
            "[0, 4)");
}

TEST(ChkFailureText, EpochTransitionReportsBothEpochs) {
  svc::GraphSnapshot prev;
  prev.epoch = 7;
  svc::GraphSnapshot next;
  next.epoch = 9;
  EXPECT_EQ(
      check_error_text([&] { chk::validate_epoch_transition(prev, next); }),
      "validation failed: snapshot: epoch did not advance by exactly one "
      "(got 9 after 7)");
}

TEST(ChkFailureText, RequireAndEnforceKeepTheirExceptionTypes) {
  try {
    require(false, "some api: bad argument");
    ADD_FAILURE() << "require(false, ...) must throw";
  } catch (const chk::CheckError&) {
    ADD_FAILURE() << "require throws plain std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "some api: bad argument");
  }
  EXPECT_EQ(check_error_text([] { chk::enforce(false, "literal"); }),
            "validation failed: literal");
}

// --- overflow-checked arithmetic --------------------------------------

TEST(ChkMath, AgreesWithPlainArithmeticInRange) {
  EXPECT_EQ(chk::checked_add(40, 2), 42);
  EXPECT_EQ(chk::checked_sub(40, 2), 38);
  EXPECT_EQ(chk::checked_mul(6, 7), 42);
  for (count_t n = 0; n < 20; ++n)
    EXPECT_EQ(chk::checked_choose2(n), choose2(n)) << n;
}

TEST(ChkMath, FiresOnOverflow) {
  if constexpr (!chk::kCheckedEnabled)
    GTEST_SKIP() << "BFC_CHECKED=OFF: checked helpers are plain arithmetic";
  EXPECT_THROW(chk::checked_add(kMax, 1), chk::CheckError);
  EXPECT_THROW(chk::checked_add(kMin, -1), chk::CheckError);
  EXPECT_THROW(chk::checked_sub(kMin, 1), chk::CheckError);
  EXPECT_THROW(chk::checked_mul(kMax / 2 + 1, 2), chk::CheckError);
  // choose2(2^33) ≈ 2^65 overflows; the accumulator path must trap, not
  // silently wrap negative.
  EXPECT_THROW(chk::checked_choose2(count_t{1} << 33), chk::CheckError);
}

TEST(ChkMath, NearLimitValuesSurvive) {
  EXPECT_EQ(chk::checked_add(kMax - 1, 1), kMax);
  EXPECT_EQ(chk::checked_sub(kMin + 1, 1), kMin);
  EXPECT_EQ(chk::checked_mul(kMax, 1), kMax);
}

// --- BFC_CHECK macro semantics ----------------------------------------

TEST(ChkMacro, CheckFiresExactlyWhenCompiledIn) {
  int evaluations = 0;
  const auto falsy = [&] {
    ++evaluations;
    return false;
  };
  static_cast<void>(falsy);  // odr-unused when the macros compile out
  if constexpr (chk::kCheckedEnabled) {
    EXPECT_THROW(BFC_CHECK(falsy()), chk::CheckError);
    EXPECT_THROW(BFC_CHECK_MSG(falsy(), "context"), chk::CheckError);
    EXPECT_NO_THROW(BFC_CHECK(1 + 1 == 2));
    EXPECT_EQ(evaluations, 2);
  } else {
    // Compiled out: the condition must not even be evaluated.
    BFC_CHECK(falsy());
    BFC_CHECK_MSG(falsy(), "context");
    EXPECT_EQ(evaluations, 0);
  }
}

TEST(ChkMacro, CheckFailMessageCarriesLocation) {
  try {
    chk::check_fail("x == y", "some_file.cpp", 42, "context");
    FAIL() << "check_fail must throw";
  } catch (const chk::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("some_file.cpp:42"), std::string::npos) << what;
    EXPECT_NE(what.find("x == y"), std::string::npos) << what;
    EXPECT_NE(what.find("context"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace bfc
