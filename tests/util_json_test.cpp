#include "util/json.h"

#include <gtest/gtest.h>

namespace disco::json {
namespace {

TEST(Json, ParsesScalars) {
  Value v;
  std::string err;
  ASSERT_TRUE(Parse("42", &v, &err));
  EXPECT_TRUE(v.is_number());
  EXPECT_DOUBLE_EQ(v.AsNumber(), 42.0);
  ASSERT_TRUE(Parse("-3.5e2", &v, &err));
  EXPECT_DOUBLE_EQ(v.AsNumber(), -350.0);
  ASSERT_TRUE(Parse("\"hi\\n\\\"there\\\"\"", &v, &err));
  EXPECT_EQ(v.AsString(), "hi\n\"there\"");
  ASSERT_TRUE(Parse("true", &v, &err));
  EXPECT_TRUE(v.AsBool());
  ASSERT_TRUE(Parse("null", &v, &err));
  EXPECT_EQ(v.kind(), Value::Kind::kNull);
}

TEST(Json, ParsesNestedStructure) {
  Value v;
  std::string err;
  const std::string text =
      "{\"bench\": \"disco_serve\", \"schemes\": ["
      "{\"name\": \"disco\", \"qps\": 125000.5},"
      "{\"name\": \"spf\", \"qps\": 9e5}], \"empty\": {}, \"list\": []}";
  ASSERT_TRUE(Parse(text, &v, &err)) << err;
  EXPECT_EQ(v.StringOr("bench", ""), "disco_serve");
  const Value* schemes = v.Find("schemes");
  ASSERT_NE(schemes, nullptr);
  ASSERT_EQ(schemes->Items().size(), 2u);
  EXPECT_DOUBLE_EQ(schemes->Items()[0].NumberOr("qps", 0), 125000.5);
  EXPECT_EQ(schemes->Items()[1].StringOr("name", ""), "spf");
  EXPECT_TRUE(v.Find("empty")->is_object());
  EXPECT_TRUE(v.Find("list")->is_array());
  EXPECT_EQ(v.Find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(v.NumberOr("missing", -1), -1);
}

TEST(Json, RejectsMalformedInput) {
  Value v;
  std::string err;
  EXPECT_FALSE(Parse("", &v, &err));
  EXPECT_FALSE(Parse("{", &v, &err));
  EXPECT_FALSE(Parse("{\"a\": }", &v, &err));
  EXPECT_FALSE(Parse("[1, 2,]", &v, &err));
  EXPECT_FALSE(Parse("\"unterminated", &v, &err));
  EXPECT_FALSE(Parse("42 garbage", &v, &err));
  EXPECT_FALSE(Parse("{\"a\": 1} extra", &v, &err));
  EXPECT_FALSE(err.empty());
  // Hostile nesting fails cleanly instead of overflowing the stack.
  err.clear();
  EXPECT_FALSE(Parse(std::string(200000, '['), &v, &err));
  EXPECT_EQ(err.rfind("nesting too deep at byte ", 0), 0u) << err;
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"a\":";
  err.clear();
  EXPECT_FALSE(Parse(objects, &v, &err));
  EXPECT_EQ(err.rfind("nesting too deep at byte ", 0), 0u) << err;
  // Reasonable nesting still parses.
  const std::string deep = std::string(100, '[') + std::string(100, ']');
  EXPECT_TRUE(Parse(deep, &v, &err)) << err;
}

TEST(Json, DumpParsesBackIdentically) {
  Value root = Value::Object();
  root.Set("name", Value::Str("p99 \"tail\"\n"));
  root.Set("count", Value::Number(128000));
  root.Set("qps", Value::Number(123456.789));
  root.Set("ok", Value::Bool(true));
  Value arr = Value::Array();
  arr.Push(Value::Number(1));
  arr.Push(Value::Str("two"));
  root.Set("items", std::move(arr));

  const std::string text = root.Dump();
  Value parsed;
  std::string err;
  ASSERT_TRUE(Parse(text, &parsed, &err)) << err;
  EXPECT_EQ(parsed.StringOr("name", ""), "p99 \"tail\"\n");
  EXPECT_DOUBLE_EQ(parsed.NumberOr("count", 0), 128000);
  EXPECT_DOUBLE_EQ(parsed.NumberOr("qps", 0), 123456.789);
  EXPECT_TRUE(parsed.Find("ok")->AsBool());
  ASSERT_EQ(parsed.Find("items")->Items().size(), 2u);
  // Dump is stable: dumping the re-parsed tree reproduces the bytes (the
  // property that keeps committed BENCH_*.json diffs clean).
  EXPECT_EQ(parsed.Dump(), text);
}

TEST(Json, IntegersDumpWithoutDecimalPoint) {
  Value v = Value::Object();
  v.Set("served", Value::Number(128000));
  const std::string text = v.Dump();
  EXPECT_NE(text.find("\"served\": 128000\n"), std::string::npos) << text;
}

TEST(Json, MemberOrderIsPreserved) {
  Value v;
  std::string err;
  ASSERT_TRUE(Parse("{\"z\": 1, \"a\": 2}", &v, &err));
  ASSERT_EQ(v.Members().size(), 2u);
  EXPECT_EQ(v.Members()[0].first, "z");
  EXPECT_EQ(v.Members()[1].first, "a");
}

}  // namespace
}  // namespace disco::json
