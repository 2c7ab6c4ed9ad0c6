#include "tree/xml.h"

#include <cctype>
#include <set>
#include <utility>

#include "common/swar.h"

namespace rwdt::tree {

std::string XmlErrorCategoryName(XmlErrorCategory category) {
  switch (category) {
    case XmlErrorCategory::kNone:
      return "none";
    case XmlErrorCategory::kTagMismatch:
      return "tag-mismatch";
    case XmlErrorCategory::kPrematureEnd:
      return "premature-end";
    case XmlErrorCategory::kBadEncoding:
      return "bad-encoding";
    case XmlErrorCategory::kBadAttribute:
      return "bad-attribute";
    case XmlErrorCategory::kBadEntity:
      return "bad-entity";
    case XmlErrorCategory::kBadComment:
      return "bad-comment";
    case XmlErrorCategory::kMultipleRoots:
      return "multiple-roots";
    case XmlErrorCategory::kStrayContent:
      return "stray-content";
    case XmlErrorCategory::kBadTagName:
      return "bad-tag-name";
    case XmlErrorCategory::kEmptyDocument:
      return "empty-document";
  }
  return "unknown";
}

bool IsValidUtf8(std::string_view input) {
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const unsigned char c = static_cast<unsigned char>(input[i]);
    size_t extra = 0;
    if (c < 0x80) {
      // ASCII is the overwhelmingly common case for query logs: skip the
      // whole run 8-16 bytes per step instead of branching per byte.
      i += swar::AsciiPrefix(input.data() + i, n - i);
      continue;
    } else if ((c & 0xe0) == 0xc0) {
      extra = 1;
      if (c < 0xc2) return false;  // overlong
    } else if ((c & 0xf0) == 0xe0) {
      extra = 2;
    } else if ((c & 0xf8) == 0xf0) {
      extra = 3;
      if (c > 0xf4) return false;  // beyond U+10FFFF
    } else {
      return false;
    }
    if (extra > 0 && i + extra >= n) return false;
    for (size_t k = 1; k <= extra; ++k) {
      if ((static_cast<unsigned char>(input[i + k]) & 0xc0) != 0x80) {
        return false;
      }
    }
    i += extra + 1;
  }
  return true;
}

XmlErrorCategory ClassifyXmlError(const Status& status) {
  if (status.ok()) return XmlErrorCategory::kNone;
  const std::string& msg = status.message();
  for (int c = 1; c <= static_cast<int>(XmlErrorCategory::kEmptyDocument);
       ++c) {
    const auto category = static_cast<XmlErrorCategory>(c);
    const std::string prefix = XmlErrorCategoryName(category) + ":";
    if (msg.compare(0, prefix.size(), prefix) == 0) return category;
  }
  return XmlErrorCategory::kNone;
}

namespace {

/// Builds the Status contract documented on ParseXml: encoding failures
/// map onto the ingest taxonomy's kEncodingError, everything else is a
/// parse error, and the category rides in the message prefix.
Status XmlError(XmlErrorCategory category, size_t offset,
                const std::string& detail) {
  std::string msg = XmlErrorCategoryName(category) + ": " + detail +
                    " at offset " + std::to_string(offset);
  if (category == XmlErrorCategory::kBadEncoding) {
    return Status::EncodingError(std::move(msg));
  }
  return Status::ParseError(std::move(msg));
}

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == ':' || c == '-' || c == '.';
}

class XmlParser {
 public:
  XmlParser(std::string_view input, Interner* dict)
      : input_(input), dict_(dict) {}

  Result<XmlDocument> Parse() {
    if (!IsValidUtf8(input_)) {
      return XmlError(XmlErrorCategory::kBadEncoding, 0, "invalid UTF-8");
    }
    RWDT_RETURN_IF_ERROR(SkipMisc());
    if (AtEnd()) {
      return XmlError(XmlErrorCategory::kEmptyDocument, pos_,
                      "no root element");
    }
    RWDT_RETURN_IF_ERROR(ParseElement(kNoNode));
    RWDT_RETURN_IF_ERROR(SkipMisc());
    if (!AtEnd()) {
      if (Peek() == '<') {
        return XmlError(XmlErrorCategory::kMultipleRoots, pos_,
                        "content after root element");
      }
      return XmlError(XmlErrorCategory::kStrayContent, pos_,
                      "text after root element");
    }
    return std::move(doc_);
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return pos_ < input_.size() ? input_[pos_] : '\0'; }
  char PeekAt(size_t off) const {
    return pos_ + off < input_.size() ? input_[pos_ + off] : '\0';
  }

  void SkipWhitespace() {
    while (!AtEnd() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  /// Skips whitespace, prolog, comments, DOCTYPE between top-level items.
  Status SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (Peek() == '<' && PeekAt(1) == '?') {
        const size_t end = input_.find("?>", pos_);
        if (end == std::string_view::npos) {
          return XmlError(XmlErrorCategory::kPrematureEnd, pos_,
                          "unterminated processing instruction");
        }
        pos_ = end + 2;
        continue;
      }
      if (Peek() == '<' && PeekAt(1) == '!' && PeekAt(2) == '-') {
        RWDT_RETURN_IF_ERROR(SkipComment());
        continue;
      }
      if (Peek() == '<' && PeekAt(1) == '!') {  // DOCTYPE
        const size_t end = input_.find('>', pos_);
        if (end == std::string_view::npos) {
          return XmlError(XmlErrorCategory::kPrematureEnd, pos_,
                          "unterminated DOCTYPE");
        }
        pos_ = end + 1;
        continue;
      }
      return Status::Ok();
    }
  }

  Status SkipComment() {
    // At "<!-".
    if (PeekAt(3) != '-') {
      return XmlError(XmlErrorCategory::kBadComment, pos_,
                      "malformed comment open");
    }
    const size_t start = pos_;
    pos_ += 4;
    const size_t end = input_.find("--", pos_);
    if (end == std::string_view::npos) {
      return XmlError(XmlErrorCategory::kBadComment, start,
                      "unterminated comment");
    }
    if (end + 2 >= input_.size() || input_[end + 2] != '>') {
      return XmlError(XmlErrorCategory::kBadComment, end,
                      "'--' inside comment");
    }
    pos_ = end + 3;
    return Status::Ok();
  }

  Result<std::string> ParseName(XmlErrorCategory category) {
    if (AtEnd()) {
      return XmlError(XmlErrorCategory::kPrematureEnd, pos_,
                      "input ends in tag");
    }
    if (!IsNameStart(Peek())) {
      return XmlError(category, pos_, "invalid name start character");
    }
    std::string name;
    while (!AtEnd() && IsNameChar(Peek())) name += input_[pos_++];
    return name;
  }

  Status ParseEntity(std::string* out) {
    // At '&'.
    const size_t start = pos_;
    const size_t semi = input_.find(';', pos_);
    if (semi == std::string_view::npos || semi - pos_ > 12) {
      return XmlError(XmlErrorCategory::kBadEntity, start, "stray '&'");
    }
    const std::string_view name = input_.substr(pos_ + 1, semi - pos_ - 1);
    if (name == "amp") {
      *out += '&';
    } else if (name == "lt") {
      *out += '<';
    } else if (name == "gt") {
      *out += '>';
    } else if (name == "quot") {
      *out += '"';
    } else if (name == "apos") {
      *out += '\'';
    } else if (!name.empty() && name[0] == '#') {
      // Numeric character reference; keep as-is for simplicity.
      *out += '?';
    } else {
      return XmlError(XmlErrorCategory::kBadEntity, start,
                      "unknown entity '" + std::string(name) + "'");
    }
    pos_ = semi + 1;
    return Status::Ok();
  }

  /// Parses one element at '<'. `parent` == kNoNode for the root.
  Status ParseElement(NodeId parent) {
    ++pos_;  // consume '<'
    RWDT_ASSIGN_OR_RETURN(const std::string name,
                          ParseName(XmlErrorCategory::kBadTagName));

    const SymbolId label = dict_->Intern(name);
    const NodeId node = parent == kNoNode
                            ? doc_.tree.AddRoot(label)
                            : doc_.tree.AddChild(parent, label);

    // Attributes.
    std::set<std::string> attr_names;
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) {
        return XmlError(XmlErrorCategory::kPrematureEnd, pos_,
                        "input ends in tag");
      }
      const char c = Peek();
      if (c == '>' || (c == '/' && PeekAt(1) == '>')) break;
      if (c == '<') {
        return XmlError(XmlErrorCategory::kStrayContent, pos_,
                        "'<' inside tag");
      }
      RWDT_ASSIGN_OR_RETURN(const std::string attr,
                            ParseName(XmlErrorCategory::kBadAttribute));
      if (!attr_names.insert(attr).second) {
        return XmlError(XmlErrorCategory::kBadAttribute, pos_,
                        "duplicate attribute '" + attr + "'");
      }
      SkipWhitespace();
      if (Peek() != '=') {
        return XmlError(XmlErrorCategory::kBadAttribute, pos_,
                        "expected '=' after attribute name");
      }
      ++pos_;
      SkipWhitespace();
      const char quote = Peek();
      if (quote != '"' && quote != '\'') {
        return XmlError(XmlErrorCategory::kBadAttribute, pos_,
                        "unquoted attribute value");
      }
      ++pos_;
      std::string value;
      while (!AtEnd() && Peek() != quote) {
        if (Peek() == '<') {
          return XmlError(XmlErrorCategory::kStrayContent, pos_,
                          "'<' in attribute value");
        }
        if (Peek() == '&') {
          RWDT_RETURN_IF_ERROR(ParseEntity(&value));
          continue;
        }
        value += input_[pos_++];
      }
      if (AtEnd()) {
        return XmlError(XmlErrorCategory::kPrematureEnd, pos_,
                        "unterminated attribute value");
      }
      ++pos_;  // closing quote
      doc_.attributes.push_back({node, attr, value});
    }

    if (Peek() == '/') {  // self-closing
      pos_ += 2;
      return Status::Ok();
    }
    ++pos_;  // '>'

    // Content.
    for (;;) {
      if (AtEnd()) {
        return XmlError(XmlErrorCategory::kPrematureEnd, pos_,
                        "missing closing tag for <" + name + ">");
      }
      const char c = Peek();
      if (c == '<') {
        if (PeekAt(1) == '/') {
          pos_ += 2;
          RWDT_ASSIGN_OR_RETURN(const std::string close,
                                ParseName(XmlErrorCategory::kBadTagName));
          SkipWhitespace();
          if (Peek() != '>') {
            return XmlError(XmlErrorCategory::kPrematureEnd, pos_,
                            "unterminated closing tag");
          }
          ++pos_;
          if (close != name) {
            return XmlError(XmlErrorCategory::kTagMismatch, pos_,
                            "</" + close + "> closes <" + name + ">");
          }
          return Status::Ok();
        }
        if (PeekAt(1) == '!' && PeekAt(2) == '-') {
          RWDT_RETURN_IF_ERROR(SkipComment());
          continue;
        }
        if (input_.substr(pos_, 9) == "<![CDATA[") {
          const size_t end = input_.find("]]>", pos_);
          if (end == std::string_view::npos) {
            return XmlError(XmlErrorCategory::kPrematureEnd, pos_,
                            "unterminated CDATA");
          }
          doc_.tree.mutable_node(node).text +=
              std::string(input_.substr(pos_ + 9, end - pos_ - 9));
          pos_ = end + 3;
          continue;
        }
        if (PeekAt(1) == '?') {
          const size_t end = input_.find("?>", pos_);
          if (end == std::string_view::npos) {
            return XmlError(XmlErrorCategory::kPrematureEnd, pos_,
                            "unterminated processing instruction");
          }
          pos_ = end + 2;
          continue;
        }
        RWDT_RETURN_IF_ERROR(ParseElement(node));
        continue;
      }
      if (c == '&') {
        std::string text;
        RWDT_RETURN_IF_ERROR(ParseEntity(&text));
        doc_.tree.mutable_node(node).text += text;
        continue;
      }
      doc_.tree.mutable_node(node).text += input_[pos_++];
    }
  }

  std::string_view input_;
  Interner* dict_;
  size_t pos_ = 0;
  XmlDocument doc_;
};

void RenderNode(const Tree& tree, const Interner& dict, NodeId id,
                std::string* out) {
  const auto& node = tree.node(id);
  const std::string_view name = dict.Name(node.label);
  *out += '<';
  *out += name;
  if (node.children.empty() && node.text.empty()) {
    *out += "/>";
    return;
  }
  *out += '>';
  *out += node.text;
  for (NodeId c : node.children) RenderNode(tree, dict, c, out);
  *out += "</";
  *out += name;
  *out += '>';
}

}  // namespace

Result<XmlDocument> ParseXml(std::string_view input, Interner* dict) {
  return XmlParser(input, dict).Parse();
}

std::string ToXml(const Tree& tree, const Interner& dict) {
  std::string out;
  if (!tree.empty()) RenderNode(tree, dict, tree.root(), &out);
  return out;
}

}  // namespace rwdt::tree
