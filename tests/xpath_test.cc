#include <gtest/gtest.h>

#include "common/interner.h"
#include "tree/xml.h"
#include "xpath/xpath.h"

namespace rwdt::xpath {
namespace {

class XPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = tree::ParseXml(
        "<library><shelf id='1'>"
        "<book><title/><author/></book>"
        "<book><title/></book>"
        "</shelf><shelf id='2'><box><book><title/></book></box></shelf>"
        "</library>",
        &dict_);
    ASSERT_TRUE(r.ok()) << r.error_message();
    tree_ = r.value().tree;
    for (const auto& a : r.value().attributes) {
      attrs_.emplace_back(a.node, a.name);
    }
  }

  Query Q(const std::string& s) {
    auto r = ParseXPath(s, &dict_);
    EXPECT_TRUE(r.ok()) << s << ": " << r.status().ToString();
    return r.value();
  }

  std::vector<tree::NodeId> Eval(const std::string& s) {
    return Evaluate(Q(s), tree_, dict_, attrs_);
  }

  std::vector<std::string> Labels(const std::vector<tree::NodeId>& nodes) {
    std::vector<std::string> out;
    for (auto n : nodes) out.emplace_back(dict_.Name(tree_.node(n).label));
    return out;
  }

  Interner dict_;
  tree::Tree tree_;
  std::vector<std::pair<tree::NodeId, std::string>> attrs_;
};

TEST_F(XPathTest, ChildAndDescendantSteps) {
  EXPECT_EQ(Eval("/library").size(), 1u);
  EXPECT_EQ(Eval("/library/shelf").size(), 2u);
  EXPECT_EQ(Eval("/library/shelf/book").size(), 2u);  // not the boxed one
  EXPECT_EQ(Eval("//book").size(), 3u);
  EXPECT_EQ(Eval("//book/title").size(), 3u);
  EXPECT_EQ(Eval("/book").size(), 0u);
}

TEST_F(XPathTest, Wildcards) {
  EXPECT_EQ(Eval("/library/*").size(), 2u);
  EXPECT_EQ(Eval("//shelf/*").size(), 3u);  // 2 books + 1 box
}

TEST_F(XPathTest, Predicates) {
  EXPECT_EQ(Eval("//book[author]").size(), 1u);
  EXPECT_EQ(Eval("//book[not(author)]").size(), 2u);
  EXPECT_EQ(Eval("//book[title and author]").size(), 1u);
  EXPECT_EQ(Eval("//book[title or author]").size(), 3u);
  EXPECT_EQ(Eval("//shelf[box]").size(), 1u);
  EXPECT_EQ(Eval("//shelf[.//title]").size(), 2u);
}

TEST_F(XPathTest, UpwardAxes) {
  EXPECT_EQ(Labels(Eval("//author/..")), std::vector<std::string>{"book"});
  EXPECT_EQ(Eval("//title/ancestor::shelf").size(), 2u);
  EXPECT_EQ(Eval("//box/parent::shelf").size(), 1u);
  EXPECT_EQ(Eval("//author/ancestor-or-self::author").size(), 1u);
}

TEST_F(XPathTest, SiblingAxes) {
  // First shelf's first book has a following sibling book.
  EXPECT_EQ(Eval("//book/following-sibling::book").size(), 1u);
  EXPECT_EQ(Eval("//book/preceding-sibling::book").size(), 1u);
  EXPECT_EQ(Eval("//title/following-sibling::author").size(), 1u);
}

TEST_F(XPathTest, FollowingPrecedingAxes) {
  // 'author' in the first book precedes the later books.
  EXPECT_GE(Eval("//author/following::book").size(), 1u);
  EXPECT_GE(Eval("//box/preceding::book").size(), 2u);
}

TEST_F(XPathTest, AttributeSteps) {
  EXPECT_EQ(Eval("//shelf[@id]").size(), 2u);
  EXPECT_EQ(Eval("//shelf/@id").size(), 2u);
  EXPECT_EQ(Eval("//book[@id]").size(), 0u);
  EXPECT_EQ(Eval("//shelf[@missing]").size(), 0u);
}

TEST_F(XPathTest, Union) {
  EXPECT_EQ(Eval("//author|//box").size(), 2u);
}

TEST_F(XPathTest, ExplicitAxisSyntax) {
  EXPECT_EQ(Eval("/library/child::shelf").size(), 2u);
  EXPECT_EQ(Eval("//title/self::title").size(), 3u);
  EXPECT_EQ(Eval("/descendant::book").size(), 3u);
}

TEST_F(XPathTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseXPath("//", &dict_).ok());
  EXPECT_FALSE(ParseXPath("//a[", &dict_).ok());
  EXPECT_FALSE(ParseXPath("//a[b", &dict_).ok());
  EXPECT_FALSE(ParseXPath("//unknown::a", &dict_).ok());
  EXPECT_FALSE(ParseXPath("", &dict_).ok());
}

TEST_F(XPathTest, SizeMetric) {
  EXPECT_EQ(Q("/a/b").Size(), 2u);
  EXPECT_EQ(Q("//a[b and c]/d").Size(), 2u + 1 + 2 * 2);
}

TEST_F(XPathTest, AxesUsed) {
  auto axes = Q("//a/../@id").AxesUsed();
  EXPECT_TRUE(axes.count(Axis::kDescendant));
  EXPECT_TRUE(axes.count(Axis::kParent));
  EXPECT_TRUE(axes.count(Axis::kAttribute));
}

TEST_F(XPathTest, FragmentClassifiers) {
  // Positive XPath: no negation.
  EXPECT_TRUE(IsPositiveXPath(Q("//a[b or c]/d")));
  EXPECT_FALSE(IsPositiveXPath(Q("//a[not(b)]")));

  // Core XPath 1.0: navigational, no attribute access.
  EXPECT_TRUE(IsCoreXPath1(Q("//a/ancestor::b[not(c)]")));
  EXPECT_FALSE(IsCoreXPath1(Q("//a[@id]")));

  // Downward XPath.
  EXPECT_TRUE(IsDownwardXPath(Q("/a//b[c]/d")));
  EXPECT_FALSE(IsDownwardXPath(Q("//a/..")));
  EXPECT_FALSE(IsDownwardXPath(Q("//a/following-sibling::b")));

  // Tree patterns: downward, conjunctive, single branch.
  EXPECT_TRUE(IsTreePattern(Q("/a//b[c and .//d]/e")));
  EXPECT_FALSE(IsTreePattern(Q("//a[b or c]")));
  EXPECT_FALSE(IsTreePattern(Q("//a[not(b)]")));
  EXPECT_FALSE(IsTreePattern(Q("//a|//b")));
  EXPECT_FALSE(IsTreePattern(Q("//a/..")));
}

TEST_F(XPathTest, EveryTreePatternIsPositiveAndDownward) {
  for (const std::string s :
       {"/a/b", "//a//b[c]", "//a[b and c[d]]", "//a/*[b]"}) {
    Query q = Q(s);
    if (IsTreePattern(q)) {
      EXPECT_TRUE(IsPositiveXPath(q)) << s;
      EXPECT_TRUE(IsDownwardXPath(q)) << s;
    }
  }
}

}  // namespace
}  // namespace rwdt::xpath
