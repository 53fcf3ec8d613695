#include "bencode/bencode.hpp"

#include <charconv>

namespace btpub::bencode {

Value::Value(std::int64_t v) : type_(Type::Integer), integer_(v) {}
Value::Value(std::string v) : type_(Type::String), string_(std::move(v)) {}
Value::Value(List v) : type_(Type::List), list_(std::make_shared<List>(std::move(v))) {}
Value::Value(Dict v) : type_(Type::Dict), dict_(std::make_shared<Dict>(std::move(v))) {}

std::int64_t Value::as_integer() const {
  if (!is_integer()) throw Error("bencode: value is not an integer");
  return integer_;
}

const std::string& Value::as_string() const {
  if (!is_string()) throw Error("bencode: value is not a string");
  return string_;
}

const List& Value::as_list() const {
  if (!is_list()) throw Error("bencode: value is not a list");
  return *list_;
}

const Dict& Value::as_dict() const {
  if (!is_dict()) throw Error("bencode: value is not a dict");
  return *dict_;
}

List& Value::as_list() {
  if (!is_list()) throw Error("bencode: value is not a list");
  return *list_;
}

Dict& Value::as_dict() {
  if (!is_dict()) throw Error("bencode: value is not a dict");
  return *dict_;
}

const Value* Value::find(std::string_view key) const {
  if (!is_dict()) return nullptr;
  const auto it = dict_->find(std::string(key));
  return it == dict_->end() ? nullptr : &it->second;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) throw Error("bencode: missing key '" + std::string(key) + "'");
  return *v;
}

std::optional<std::int64_t> Value::find_integer(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || !v->is_integer()) return std::nullopt;
  return v->as_integer();
}

std::optional<std::string> Value::find_string(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->as_string();
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Value::Type::Integer:
      return a.integer_ == b.integer_;
    case Value::Type::String:
      return a.string_ == b.string_;
    case Value::Type::List:
      return *a.list_ == *b.list_;
    case Value::Type::Dict:
      return *a.dict_ == *b.dict_;
  }
  return false;
}

namespace {

/// Appends the decimal digits of `v` without going through std::to_string
/// (keeps the writer allocation-free regardless of SSO limits).
void append_decimal(std::int64_t v, std::string& out) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace

void Writer::integer(std::int64_t v) {
  *out_ += 'i';
  append_decimal(v, *out_);
  *out_ += 'e';
}

void Writer::string_header(std::size_t n) {
  append_decimal(static_cast<std::int64_t>(n), *out_);
  *out_ += ':';
}

void Writer::string(std::string_view bytes) {
  string_header(bytes.size());
  out_->append(bytes);
}

namespace {

void encode_into(const Value& v, std::string& out) {
  switch (v.type()) {
    case Value::Type::Integer:
      out += 'i';
      out += std::to_string(v.as_integer());
      out += 'e';
      break;
    case Value::Type::String: {
      const std::string& s = v.as_string();
      out += std::to_string(s.size());
      out += ':';
      out += s;
      break;
    }
    case Value::Type::List:
      out += 'l';
      for (const Value& item : v.as_list()) encode_into(item, out);
      out += 'e';
      break;
    case Value::Type::Dict:
      out += 'd';
      for (const auto& [key, val] : v.as_dict()) {
        out += std::to_string(key.size());
        out += ':';
        out += key;
        encode_into(val, out);
      }
      out += 'e';
      break;
  }
}

class Parser {
 public:
  Parser(std::string_view data, std::size_t pos) : data_(data), pos_(pos) {}

  Value parse_value(int depth = 0) {
    if (depth > kMaxDepth) throw Error("bencode: nesting too deep");
    const char c = peek();
    if (c == 'i') return parse_integer();
    if (c == 'l') return parse_list(depth);
    if (c == 'd') return parse_dict(depth);
    if (c >= '0' && c <= '9') return Value(parse_string());
    throw Error("bencode: unexpected byte at offset " + std::to_string(pos_));
  }

  std::size_t pos() const noexcept { return pos_; }

  /// Walks the dict or list that is all of the input, calling
  /// on_child(key, raw) per entry (key is empty for list items), then
  /// rejects trailing bytes.
  template <typename OnChild>
  void walk_whole(char open, OnChild&& on_child) {
    if (peek() != open) {
      throw Error(open == 'd' ? "bencode: value is not a dict"
                              : "bencode: value is not a list");
    }
    const auto raw_child = [&](std::string_view key, int child_depth) {
      const std::size_t start = pos_;
      skip_value(child_depth);
      on_child(key, data_.substr(start, pos_ - start));
    };
    if (open == 'd') {
      walk_dict(0, raw_child);
    } else {
      take();  // 'l'
      while (peek() != 'e') raw_child({}, 1);
      take();  // 'e'
    }
    if (pos_ != data_.size()) {
      throw Error("bencode: trailing bytes after value");
    }
  }

 private:
  static constexpr int kMaxDepth = 64;

  char peek() const {
    if (pos_ >= data_.size()) throw Error("bencode: truncated input");
    return data_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  std::int64_t parse_raw_integer(char terminator) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < data_.size() && data_[pos_] >= '0' && data_[pos_] <= '9') ++pos_;
    if (pos_ == start || (data_[start] == '-' && pos_ == start + 1)) {
      throw Error("bencode: malformed integer");
    }
    // i-0e and leading zeroes are invalid per BEP 3.
    const std::string_view digits = data_.substr(start, pos_ - start);
    if (digits == "-0" ||
        (digits.size() > 1 && digits[0] == '0') ||
        (digits.size() > 2 && digits[0] == '-' && digits[1] == '0')) {
      throw Error("bencode: non-canonical integer");
    }
    std::int64_t value = 0;
    const auto result =
        std::from_chars(digits.data(), digits.data() + digits.size(), value);
    if (result.ec != std::errc{}) throw Error("bencode: integer out of range");
    if (take() != terminator) throw Error("bencode: bad integer terminator");
    return value;
  }

  Value parse_integer() {
    take();  // 'i'
    return Value(parse_raw_integer('e'));
  }

  std::string_view parse_string_view() {
    const std::int64_t len = parse_raw_integer(':');
    if (len < 0) throw Error("bencode: negative string length");
    const auto n = static_cast<std::size_t>(len);
    if (n > data_.size() - pos_) throw Error("bencode: string exceeds input");
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  std::string parse_string() { return std::string(parse_string_view()); }

  Value parse_list(int depth) {
    take();  // 'l'
    List list;
    while (peek() != 'e') list.push_back(parse_value(depth + 1));
    take();  // 'e'
    return Value(std::move(list));
  }

  /// Walks one dict's entries in order, calling on_entry(key, depth) with
  /// `pos_` at the start of each value; on_entry must consume that value.
  template <typename OnEntry>
  void walk_dict(int depth, OnEntry&& on_entry) {
    take();  // 'd'
    std::string_view prev_key;
    bool first = true;
    while (peek() != 'e') {
      const std::string_view key = parse_string_view();
      if (!first && key <= prev_key) {
        throw Error("bencode: dict keys not strictly ascending");
      }
      on_entry(key, depth + 1);
      prev_key = key;
      first = false;
    }
    take();  // 'e'
  }

  Value parse_dict(int depth) {
    Dict dict;
    walk_dict(depth, [&](std::string_view key, int child_depth) {
      dict.emplace(std::string(key), parse_value(child_depth));
    });
    return Value(std::move(dict));
  }

  /// Validates one value exactly as parse_value() does, without building it.
  void skip_value(int depth) {
    if (depth > kMaxDepth) throw Error("bencode: nesting too deep");
    const char c = peek();
    if (c == 'i') {
      take();
      parse_raw_integer('e');
    } else if (c == 'l') {
      take();
      while (peek() != 'e') skip_value(depth + 1);
      take();
    } else if (c == 'd') {
      walk_dict(depth, [&](std::string_view, int child_depth) {
        skip_value(child_depth);
      });
    } else if (c >= '0' && c <= '9') {
      parse_string_view();
    } else {
      throw Error("bencode: unexpected byte at offset " + std::to_string(pos_));
    }
  }

  std::string_view data_;
  std::size_t pos_;
};

}  // namespace

std::string encode(const Value& v) {
  std::string out;
  encode_into(v, out);
  return out;
}

Value decode(std::string_view data) {
  std::size_t pos = 0;
  Value v = decode_prefix(data, pos);
  if (pos != data.size()) throw Error("bencode: trailing bytes after value");
  return v;
}

Value decode_prefix(std::string_view data, std::size_t& pos) {
  Parser p(data, pos);
  Value v = p.parse_value();
  pos = p.pos();
  return v;
}

namespace detail {

void walk_dict(std::string_view dict, EntryFn on_entry, void* ctx) {
  Parser(dict, 0).walk_whole('d', [&](std::string_view key,
                                      std::string_view raw) {
    on_entry(ctx, key, raw);
  });
}

void walk_list(std::string_view list, ItemFn on_item, void* ctx) {
  Parser(list, 0).walk_whole('l', [&](std::string_view, std::string_view raw) {
    on_item(ctx, raw);
  });
}

}  // namespace detail

std::optional<std::string_view> find_raw(std::string_view dict,
                                         std::string_view key) {
  std::optional<std::string_view> found;
  walk_dict(dict, [&](std::string_view k, std::string_view raw) {
    if (k == key) found = raw;
  });
  return found;
}

}  // namespace btpub::bencode
