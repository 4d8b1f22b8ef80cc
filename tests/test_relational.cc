// Unit tests for the versioned relational engine.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "relational/catalog.h"
#include "relational/index.h"

namespace mmv {
namespace rel {
namespace {

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        Schema{"people", {"name", "age", "city"}});
  }
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, InsertSelectScan) {
  ASSERT_TRUE(table_->Insert({Value("ann"), Value(30), Value("dc")}, 1).ok());
  ASSERT_TRUE(table_->Insert({Value("bob"), Value(40), Value("ny")}, 1).ok());
  EXPECT_EQ(table_->size(), 2u);

  auto rows = table_->SelectEq("name", Value("ann"));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value(30));

  EXPECT_EQ(table_->Scan().size(), 2u);
}

TEST_F(TableTest, IndexStaysCorrectAcrossMutations) {
  // Force index materialization first, then mutate: the incremental index
  // maintenance (no wholesale invalidation) must keep SelectEq exact.
  ASSERT_TRUE(table_->Insert({Value("ann"), Value(30), Value("dc")}, 1).ok());
  ASSERT_TRUE(table_->SelectEq("name", Value("ann")).ok());

  ASSERT_TRUE(table_->Insert({Value("bob"), Value(40), Value("ny")}, 2).ok());
  ASSERT_TRUE(table_->Insert({Value("ann"), Value(51), Value("la")}, 3).ok());
  auto rows = table_->SelectEq("name", Value("ann"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);

  ASSERT_TRUE(table_->Delete({Value("ann"), Value(30), Value("dc")}, 4).ok());
  rows = table_->SelectEq("name", Value("ann"));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value(51));

  // A second index materialized after the deletes sees the same state.
  auto cities = table_->SelectEq("city", Value("dc"));
  ASSERT_TRUE(cities.ok());
  EXPECT_TRUE(cities->empty());

  auto removed = table_->DeleteWhere("name", Value("ann"), 5);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1);
  rows = table_->SelectEq("name", Value("ann"));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  EXPECT_EQ(table_->SelectEq("name", Value("bob"))->size(), 1u);
}

TEST_F(TableTest, ArityMismatchRejected) {
  EXPECT_EQ(table_->Insert({Value("ann")}, 1).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TableTest, UnknownColumnRejected) {
  EXPECT_EQ(table_->SelectEq("nope", Value(1)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(TableTest, DeleteOneOccurrence) {
  Row r = {Value("ann"), Value(30), Value("dc")};
  ASSERT_TRUE(table_->Insert(r, 1).ok());
  ASSERT_TRUE(table_->Insert(r, 1).ok());  // duplicate allowed
  EXPECT_EQ(table_->size(), 2u);
  ASSERT_TRUE(table_->Delete(r, 2).ok());
  EXPECT_EQ(table_->size(), 1u);
  ASSERT_TRUE(table_->Delete(r, 2).ok());
  EXPECT_EQ(table_->Delete(r, 2).code(), StatusCode::kNotFound);
}

TEST_F(TableTest, DeleteWhere) {
  ASSERT_TRUE(table_->Insert({Value("ann"), Value(30), Value("dc")}, 1).ok());
  ASSERT_TRUE(table_->Insert({Value("bob"), Value(30), Value("ny")}, 1).ok());
  ASSERT_TRUE(table_->Insert({Value("cat"), Value(40), Value("dc")}, 1).ok());
  auto n = table_->DeleteWhere("age", Value(30), 2);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2);
  EXPECT_EQ(table_->size(), 1u);
}

TEST_F(TableTest, SelectRange) {
  ASSERT_TRUE(table_->Insert({Value("a"), Value(10), Value("x")}, 1).ok());
  ASSERT_TRUE(table_->Insert({Value("b"), Value(20), Value("x")}, 1).ok());
  ASSERT_TRUE(table_->Insert({Value("c"), Value(30), Value("x")}, 1).ok());
  auto rows = table_->SelectRange("age", 15, 30);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(TableTest, TimeTravelRowsAt) {
  ASSERT_TRUE(table_->Insert({Value("a"), Value(1), Value("x")}, 1).ok());
  ASSERT_TRUE(table_->Insert({Value("b"), Value(2), Value("x")}, 2).ok());
  ASSERT_TRUE(table_->Delete({Value("a"), Value(1), Value("x")}, 3).ok());

  EXPECT_EQ(table_->RowsAt(0).size(), 0u);
  EXPECT_EQ(table_->RowsAt(1).size(), 1u);
  EXPECT_EQ(table_->RowsAt(2).size(), 2u);
  EXPECT_EQ(table_->RowsAt(3).size(), 1u);
  EXPECT_EQ(table_->RowsAt(3)[0][0], Value("b"));
  // Current state agrees with the latest tick.
  EXPECT_EQ(table_->Scan().size(), 1u);
}

TEST_F(TableTest, DiffBetweenIsFPlusFMinus) {
  ASSERT_TRUE(table_->Insert({Value("a"), Value(1), Value("x")}, 1).ok());
  ASSERT_TRUE(table_->Insert({Value("b"), Value(2), Value("x")}, 2).ok());
  ASSERT_TRUE(table_->Delete({Value("a"), Value(1), Value("x")}, 2).ok());

  TableDiff diff = table_->DiffBetween(1, 2);
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0][0], Value("b"));
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0][0], Value("a"));

  TableDiff none = table_->DiffBetween(2, 2);
  EXPECT_TRUE(none.added.empty());
  EXPECT_TRUE(none.removed.empty());
}

TEST(CatalogTest, CreateGetInsert) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable(Schema{"t", {"a"}}).ok());
  EXPECT_EQ(cat.CreateTable(Schema{"t", {"a"}}).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(cat.GetTable("missing").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(cat.Insert("t", {Value(1)}).ok());
  auto t = cat.GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->size(), 1u);
  EXPECT_EQ(cat.table_count(), 1u);
}

TEST(CatalogTest, ClockStampsMutations) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable(Schema{"t", {"a"}}).ok());
  ASSERT_TRUE(cat.Insert("t", {Value(1)}).ok());  // tick 0
  cat.clock().Advance();                          // tick 1
  ASSERT_TRUE(cat.Insert("t", {Value(2)}).ok());

  const Table* t = *static_cast<const Catalog&>(cat).GetTable("t");
  EXPECT_EQ(t->RowsAt(0).size(), 1u);
  EXPECT_EQ(t->RowsAt(1).size(), 2u);
}

// RowsAt(t) against a reference replay of the operations a random
// session applied: inserts, deletes (present and absent rows) and
// DeleteWhere through the catalog at the current tick, with and without
// Advance between them, over a small value space so rows repeat. Every
// tick from before the first entry to past the last one is checked after
// every operation, so the live-rows fast path (t at or after the last
// logged tick) and the replay path must both agree with the reference,
// order included.
TEST(CatalogTest, RowsAtMatchesReplayOverRandomSessions) {
  struct Op {
    int64_t tick;
    enum { kInsert, kDelete, kDeleteWhere } kind;
    Row row;  // kDeleteWhere: {column 0 value}
  };
  auto replay = [](const std::vector<Op>& ops, int64_t t) {
    std::vector<Row> rows;
    for (const Op& op : ops) {
      if (op.tick > t) break;
      if (op.kind == Op::kInsert) {
        rows.push_back(op.row);
      } else if (op.kind == Op::kDelete) {
        rows.erase(std::find(rows.begin(), rows.end(), op.row));
      } else {
        rows.erase(std::remove_if(rows.begin(), rows.end(),
                                  [&](const Row& r) {
                                    return r[0] == op.row[0];
                                  }),
                   rows.end());
      }
    }
    return rows;
  };
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Catalog cat;
    ASSERT_TRUE(cat.CreateTable(Schema{"t", {"k", "v"}}).ok());
    const Table* table = *static_cast<const Catalog&>(cat).GetTable("t");
    std::vector<Op> ops;
    auto random_row = [&rng]() -> Row {
      return {Value(rng.Int(0, 2)),
              Value(std::string(1, static_cast<char>('a' + rng.Int(0, 1))))};
    };
    for (int step = 0; step < 60; ++step) {
      const int64_t now = cat.clock().now();
      const int64_t pick = rng.Int(0, 9);
      if (pick < 5) {
        Row row = random_row();
        ASSERT_TRUE(cat.Insert("t", row).ok());
        ops.push_back({now, Op::kInsert, row});
      } else if (pick < 7) {
        Row row = random_row();  // may be absent: NotFound logs nothing
        const std::vector<Row> rows = replay(ops, now);
        const bool live =
            std::find(rows.begin(), rows.end(), row) != rows.end();
        Status s = cat.Delete("t", row);
        ASSERT_EQ(s.ok(), live) << s.ToString();
        if (live) ops.push_back({now, Op::kDelete, row});
      } else if (pick < 8) {
        Value k(rng.Int(0, 2));
        Result<int64_t> removed =
            (*cat.GetTable("t"))->DeleteWhere("k", k, now);
        ASSERT_TRUE(removed.ok());
        ops.push_back({now, Op::kDeleteWhere, {k}});
      } else {
        cat.clock().Advance();
      }
      for (int64_t t = -1; t <= cat.clock().now() + 1; ++t) {
        ASSERT_EQ(table->RowsAt(t), replay(ops, t))
            << "seed " << seed << " step " << step << " tick " << t;
      }
    }
  }
}

TEST(SchemaTest, ColumnIndex) {
  Schema s{"t", {"a", "b", "c"}};
  EXPECT_EQ(s.ColumnIndex("a"), 0);
  EXPECT_EQ(s.ColumnIndex("c"), 2);
  EXPECT_EQ(s.ColumnIndex("zzz"), -1);
  EXPECT_EQ(s.arity(), 3u);
}

TEST(RowTest, RoundTripThroughValue) {
  Row r = {Value("x"), Value(1)};
  Value v = RowToValue(r);
  ASSERT_TRUE(v.is_list());
  auto back = ValueToRow(v);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, r);
  EXPECT_EQ(ValueToRow(Value(3)).status().code(), StatusCode::kTypeError);
}

TEST(HashIndexTest, LookupFindsAllMatches) {
  std::vector<Row> rows = {{Value(1), Value("a")},
                           {Value(2), Value("b")},
                           {Value(1), Value("c")}};
  HashIndex idx(rows, 0);
  auto hits = idx.Lookup(rows, Value(1));
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_TRUE(idx.Lookup(rows, Value(9)).empty());
}

}  // namespace
}  // namespace rel
}  // namespace mmv
