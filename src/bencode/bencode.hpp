// bencode.hpp — encoder/decoder for the bencode format (BEP 3).
//
// The simulator keeps the *formats* real even though no sockets are opened:
// .torrent metainfo files and tracker announce responses are produced and
// consumed as genuine bencoded byte strings, so the crawler exercises the
// same parsing path a real measurement apparatus would.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace btpub::bencode {

class Value;

using List = std::vector<Value>;
// Bencode dictionaries are ordered by raw byte string; std::map matches the
// canonical-encoding requirement (keys sorted) for free.
using Dict = std::map<std::string, Value>;

/// Error thrown on malformed bencode input or on type-mismatched access.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A bencode value: integer, byte string, list or dictionary.
class Value {
 public:
  enum class Type { Integer, String, List, Dict };

  Value() : Value(std::int64_t{0}) {}
  Value(std::int64_t v);                 // NOLINT(google-explicit-constructor)
  Value(std::string v);                  // NOLINT(google-explicit-constructor)
  Value(const char* v) : Value(std::string(v)) {}  // NOLINT
  Value(List v);                         // NOLINT(google-explicit-constructor)
  Value(Dict v);                         // NOLINT(google-explicit-constructor)

  Type type() const noexcept { return type_; }
  bool is_integer() const noexcept { return type_ == Type::Integer; }
  bool is_string() const noexcept { return type_ == Type::String; }
  bool is_list() const noexcept { return type_ == Type::List; }
  bool is_dict() const noexcept { return type_ == Type::Dict; }

  /// Checked accessors; throw Error on type mismatch.
  std::int64_t as_integer() const;
  const std::string& as_string() const;
  const List& as_list() const;
  const Dict& as_dict() const;
  List& as_list();
  Dict& as_dict();

  /// Dictionary lookup returning nullptr when the key is absent.
  const Value* find(std::string_view key) const;
  /// Dictionary lookup that throws when the key is absent.
  const Value& at(std::string_view key) const;

  /// Typed optional lookups for the common tracker/metainfo fields.
  std::optional<std::int64_t> find_integer(std::string_view key) const;
  std::optional<std::string> find_string(std::string_view key) const;

  friend bool operator==(const Value& a, const Value& b);

 private:
  Type type_;
  std::int64_t integer_ = 0;
  std::string string_;
  // Indirection keeps Value small and breaks the recursive type.
  std::shared_ptr<List> list_;
  std::shared_ptr<Dict> dict_;
};

/// Streaming encoder that appends canonical bencoding directly into a
/// caller-owned buffer — no Value tree, no intermediate strings. Once the
/// buffer's capacity has grown to the steady-state reply size, encoding is
/// allocation-free, which is what the tracker's announce fast path relies
/// on. The writer does not validate nesting; callers are expected to emit
/// well-formed sequences (dict keys in ascending byte order, every begin_*
/// matched by an end).
class Writer {
 public:
  /// Appends to `out`; the buffer is NOT cleared (callers that want a
  /// fresh message clear it themselves and keep the capacity).
  explicit Writer(std::string& out) : out_(&out) {}

  void integer(std::int64_t v);
  void string(std::string_view bytes);
  /// Dict key — identical encoding to string(), named for call-site
  /// clarity.
  void key(std::string_view k) { string(k); }

  /// Emits the "<n>:" header of a byte string whose n payload bytes the
  /// caller will append directly to buffer() (e.g. a compact-peer blob
  /// written in place).
  void string_header(std::size_t n);

  void begin_list() { *out_ += 'l'; }
  void begin_dict() { *out_ += 'd'; }
  void end() { *out_ += 'e'; }

  std::string& buffer() noexcept { return *out_; }

 private:
  std::string* out_;
};

/// Serialises a value to its canonical bencoding.
std::string encode(const Value& v);

/// Parses exactly one value; throws Error on malformed input or trailing
/// garbage.
Value decode(std::string_view data);

/// Parses one value starting at `pos`, advancing `pos` past it. Allows
/// streaming several concatenated values.
Value decode_prefix(std::string_view data, std::size_t& pos);

namespace detail {
using EntryFn = void (*)(void* ctx, std::string_view key, std::string_view raw);
using ItemFn = void (*)(void* ctx, std::string_view raw);
void walk_dict(std::string_view dict, EntryFn on_entry, void* ctx);
void walk_list(std::string_view list, ItemFn on_item, void* ctx);
}  // namespace detail

/// Walks the dictionary that is all of `dict`, calling
/// on_entry(key, raw) for each entry in key order, where `raw` is the
/// encoded bytes of the value. `dict` is validated exactly as decode()
/// validates it (throws Error on malformed input, a non-dict or trailing
/// bytes), but no Value tree is built and no payload is copied. Because
/// decode() accepts only canonical bencoding, `raw` equals encode() of the
/// decoded value. on_entry may already have run for earlier entries when
/// a later byte throws, so a caller treats a throw as rejecting the whole
/// input.
template <typename OnEntry>
void walk_dict(std::string_view dict, OnEntry&& on_entry) {
  using F = std::remove_reference_t<OnEntry>;
  detail::walk_dict(
      dict,
      [](void* ctx, std::string_view key, std::string_view raw) {
        (*static_cast<F*>(ctx))(key, raw);
      },
      const_cast<void*>(static_cast<const void*>(&on_entry)));
}

/// The list counterpart of walk_dict: on_item(raw) per element, in order,
/// with the same validation.
template <typename OnItem>
void walk_list(std::string_view list, OnItem&& on_item) {
  using F = std::remove_reference_t<OnItem>;
  detail::walk_list(
      list,
      [](void* ctx, std::string_view raw) { (*static_cast<F*>(ctx))(raw); },
      const_cast<void*>(static_cast<const void*>(&on_item)));
}

/// Returns the encoded bytes of the value stored under `key` in the
/// dictionary that is all of `dict`, or nullopt when the key is absent;
/// validates and throws as walk_dict does.
std::optional<std::string_view> find_raw(std::string_view dict,
                                         std::string_view key);

/// The payload of a string value given its raw bytes as walk_dict or
/// walk_list yields them; nullopt when the value is not a string.
inline std::optional<std::string_view> raw_string(std::string_view raw) noexcept {
  if (raw.empty() || raw[0] < '0' || raw[0] > '9') return std::nullopt;
  return raw.substr(raw.find(':') + 1);
}

/// The value of an integer given its validated raw bytes; nullopt when the
/// value is not an integer.
inline std::optional<std::int64_t> raw_integer(std::string_view raw) noexcept {
  if (raw.size() < 3 || raw[0] != 'i') return std::nullopt;
  std::int64_t value = 0;
  std::from_chars(raw.data() + 1, raw.data() + raw.size() - 1, value);
  return value;
}

}  // namespace btpub::bencode
