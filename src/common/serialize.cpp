#include "common/serialize.h"

namespace dcert {

void Encoder::U16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Encoder::U32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::U64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::Blob(ByteView bytes) {
  U32(static_cast<std::uint32_t>(bytes.size()));
  Raw(bytes);
}

void Encoder::Str(std::string_view s) {
  Blob(ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Decoder::Need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    throw DecodeError("Decoder: truncated input");
  }
}

std::uint8_t Decoder::U8() {
  Need(1);
  return data_[pos_++];
}

bool Decoder::Bool() {
  const std::uint8_t b = U8();
  if (b > 1) throw DecodeError("Decoder: bool byte is neither 0 nor 1");
  return b == 1;
}

std::uint16_t Decoder::U16() {
  Need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Decoder::U32() {
  Need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Decoder::U64() {
  Need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Bytes Decoder::Raw(std::size_t n) {
  Need(n);
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Hash256 Decoder::HashField() {
  Need(Hash256::kSize);
  Hash256 h = Hash256::FromBytes(data_.subspan(pos_, Hash256::kSize));
  pos_ += Hash256::kSize;
  return h;
}

Bytes Decoder::Blob() {
  std::uint32_t n = U32();
  return Raw(n);
}

ByteView Decoder::BlobView() {
  const std::uint32_t n = U32();
  Need(n);
  ByteView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string Decoder::Str() {
  Bytes b = Blob();
  return std::string(b.begin(), b.end());
}

void Decoder::ExpectEnd() const {
  if (!AtEnd()) {
    throw DecodeError("Decoder: trailing bytes after structure");
  }
}

}  // namespace dcert
