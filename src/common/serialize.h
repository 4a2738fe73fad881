// Minimal deterministic binary serialization used for all hashable structures
// (block headers, transactions, certificates, proofs). Little-endian fixed-width
// integers plus length-prefixed buffers; no alignment, no padding, so encodings
// are canonical and safe to hash or sign.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace dcert {

/// Thrown by Decoder when the input is truncated or malformed.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends fields to an owned buffer.
class Encoder {
 public:
  Encoder() = default;

  void Reserve(std::size_t n) { buf_.reserve(n); }
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  /// Raw bytes without a length prefix (use for fixed-size fields).
  void Raw(ByteView bytes) { Append(buf_, bytes); }
  void HashField(const Hash256& h) { Append(buf_, h); }
  /// Length-prefixed (u32) variable-size buffer.
  void Blob(ByteView bytes);
  void Str(std::string_view s);
  void Bool(bool b) { U8(b ? 1 : 0); }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Reads fields back out of a buffer; throws DecodeError on truncation.
class Decoder {
 public:
  explicit Decoder(ByteView data) : data_(data) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  Bytes Raw(std::size_t n);
  Hash256 HashField();
  Bytes Blob();
  /// Blob() without the copy: a view into the input, valid while it lives.
  ByteView BlobView();
  std::string Str();
  /// Strict: only 0 and 1 decode, so every encoded bool has one byte form.
  bool Bool();

  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t Remaining() const { return data_.size() - pos_; }
  /// Asserts the whole input was consumed; rejects trailing garbage.
  void ExpectEnd() const;

 private:
  void Need(std::size_t n) const;

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace dcert
