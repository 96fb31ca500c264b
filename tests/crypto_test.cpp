// Known-answer and property tests for the crypto substrate: SHA-256,
// ChaCha20, the deterministic CSPRNG, and the Lamport one-time signature.
#include <gtest/gtest.h>

#include "crypto/chacha20.hpp"
#include "crypto/ots.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"

namespace dlr::crypto {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---- SHA-256 (FIPS 180-4 vectors) --------------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash(str_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                str_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  auto d = h.finish();
  EXPECT_EQ(to_hex(d), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const auto msg = str_bytes("the quick brown fox jumps over the lazy dog etc etc");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::span<const std::uint8_t>(msg.data(), split));
    h.update(std::span<const std::uint8_t>(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "split=" << split;
  }
}

TEST(Sha256Test, TaggedHashDomainSeparates) {
  const auto msg = str_bytes("payload");
  EXPECT_NE(tagged_hash("tag-a", msg), tagged_hash("tag-b", msg));
}

TEST(Sha256Test, KdfLengthsAndDeterminism) {
  const auto seed = str_bytes("seed");
  for (std::size_t n : {0u, 1u, 31u, 32u, 33u, 100u}) {
    const auto k = kdf(seed, n, "t");
    EXPECT_EQ(k.size(), n);
  }
  EXPECT_EQ(kdf(seed, 64, "t"), kdf(seed, 64, "t"));
  EXPECT_NE(kdf(seed, 64, "t1"), kdf(seed, 64, "t2"));
  // Prefix property of counter-mode KDF.
  const auto k64 = kdf(seed, 64, "t");
  const auto k32 = kdf(seed, 32, "t");
  EXPECT_TRUE(std::equal(k32.begin(), k32.end(), k64.begin()));
}

// ---- ChaCha20 (RFC 8439 vectors) ------------------------------------------------

TEST(ChaCha20Test, Rfc8439BlockVector) {
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  const Bytes nonce = from_hex("000000090000004a00000000");
  ChaCha20 cc{key, nonce};
  const auto block = cc.block(1);
  EXPECT_EQ(to_hex(Bytes(block.begin(), block.end())),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439EncryptionVector) {
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  const Bytes nonce = from_hex("000000000000004a00000000");
  ChaCha20 cc{key, nonce, 1};
  Bytes pt = str_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  cc.xor_stream(pt);
  EXPECT_EQ(to_hex(Bytes(pt.begin(), pt.begin() + 32)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
}

TEST(ChaCha20Test, XorStreamRoundTrip) {
  Rng rng(7);
  const auto key = rng.bytes(32);
  const auto nonce = rng.bytes(12);
  Bytes msg = rng.bytes(1000);
  const Bytes orig = msg;
  ChaCha20 enc{key, nonce};
  enc.xor_stream(msg);
  EXPECT_NE(msg, orig);
  ChaCha20 dec{key, nonce};
  dec.xor_stream(msg);
  EXPECT_EQ(msg, orig);
}

TEST(ChaCha20Test, BadKeyOrNonceSizeThrows) {
  EXPECT_THROW((ChaCha20{Bytes(31), Bytes(12)}), std::invalid_argument);
  EXPECT_THROW((ChaCha20{Bytes(32), Bytes(11)}), std::invalid_argument);
}

// ---- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.bytes(64), b.bytes(64));
  Rng a2(123);
  EXPECT_NE(a2.bytes(64), c.bytes(64));
}

TEST(RngTest, ForkIndependence) {
  Rng a(1);
  auto child1 = a.fork("x");
  Rng b(1);
  auto child2 = b.fork("x");
  EXPECT_EQ(child1.bytes(32), child2.bytes(32));
  Rng c(1);
  auto childy = c.fork("y");
  EXPECT_NE(child1.bytes(32), childy.bytes(32));
}

TEST(RngTest, ForkRatchetsParent) {
  Rng a(1);
  Rng b(1);
  (void)a.fork("x");
  (void)b.fork("x");
  EXPECT_EQ(a.bytes(32), b.bytes(32));  // same post-fork state
  Rng c(1);
  EXPECT_NE(a.u64(), c.u64());  // differs from never-forked
}

TEST(RngTest, ForkStreamsArePinned) {
  // Every seeded stream downstream of a fork (keygen, P1/P2 party rngs,
  // KeyStore::ref_prepare coins) depends on these bytes staying put.
  Rng parent(20261018);
  Rng child = parent.fork("ks.ref_prepare");
  EXPECT_EQ(to_hex(child.bytes(16)), "3f8f61cc4a432b24c7f790aea6c3675f");
  EXPECT_EQ(to_hex(parent.bytes(16)), "9ae874a6d305339d32c9044d0012a8be");
}

TEST(RngTest, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(9);
  std::array<int, 10> buckets{};
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (int c : buckets) EXPECT_GT(c, 800);
  EXPECT_THROW((void)rng.below(0), std::invalid_argument);
}

TEST(RngTest, FillPartialBlocks) {
  Rng a(11), b(11);
  // Drawing 100 bytes at once vs in pieces yields the same stream.
  const auto big = a.bytes(100);
  Bytes pieces;
  for (std::size_t n : {1u, 7u, 64u, 28u}) {
    const auto p = b.bytes(n);
    pieces.insert(pieces.end(), p.begin(), p.end());
  }
  EXPECT_EQ(big, pieces);
}

// ---- Lamport OTS -----------------------------------------------------------------

TEST(LamportOtsTest, SignVerifyRoundTrip) {
  Rng rng(21);
  auto kp = LamportOts::keygen(rng);
  const auto msg = str_bytes("attack at dawn");
  const auto sig = LamportOts::sign(kp.sk, msg);
  EXPECT_TRUE(LamportOts::verify(kp.vk, msg, sig));
}

TEST(LamportOtsTest, WrongMessageRejected) {
  Rng rng(22);
  auto kp = LamportOts::keygen(rng);
  const auto sig = LamportOts::sign(kp.sk, str_bytes("m1"));
  EXPECT_FALSE(LamportOts::verify(kp.vk, str_bytes("m2"), sig));
}

TEST(LamportOtsTest, TamperedSignatureRejected) {
  Rng rng(23);
  auto kp = LamportOts::keygen(rng);
  const auto msg = str_bytes("msg");
  auto sig = LamportOts::sign(kp.sk, msg);
  sig.reveal[5][0] ^= 1;
  EXPECT_FALSE(LamportOts::verify(kp.vk, msg, sig));
}

TEST(LamportOtsTest, WrongKeyRejected) {
  Rng rng(24);
  auto kp1 = LamportOts::keygen(rng);
  auto kp2 = LamportOts::keygen(rng);
  const auto msg = str_bytes("msg");
  const auto sig = LamportOts::sign(kp1.sk, msg);
  EXPECT_FALSE(LamportOts::verify(kp2.vk, msg, sig));
}

TEST(LamportOtsTest, KeyReuseRefused) {
  Rng rng(25);
  auto kp = LamportOts::keygen(rng);
  (void)LamportOts::sign(kp.sk, str_bytes("first"));
  EXPECT_THROW((void)LamportOts::sign(kp.sk, str_bytes("second")), std::logic_error);
}

TEST(LamportOtsTest, SerializationRoundTrip) {
  Rng rng(26);
  auto kp = LamportOts::keygen(rng);
  const auto msg = str_bytes("serialize me");
  const auto sig = LamportOts::sign(kp.sk, msg);

  const auto vkb = LamportOts::serialize_vk(kp.vk);
  EXPECT_EQ(vkb.size(), LamportOts::vk_bytes());
  ByteReader r1(vkb);
  const auto vk2 = LamportOts::deserialize_vk(r1);
  EXPECT_EQ(vk2, kp.vk);

  const auto sigb = LamportOts::serialize_sig(sig);
  EXPECT_EQ(sigb.size(), LamportOts::sig_bytes());
  ByteReader r2(sigb);
  const auto sig2 = LamportOts::deserialize_sig(r2);
  EXPECT_TRUE(LamportOts::verify(vk2, msg, sig2));
}

// ---- bytes utils -------------------------------------------------------------------

TEST(BytesTest, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.blob(str_bytes("hello"));
  w.str("world");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.blob(), str_bytes("hello"));
  EXPECT_EQ(r.str(), "world");
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, ReaderUnderrunThrows) {
  const Bytes buf{1, 2};
  ByteReader r(buf);
  EXPECT_THROW((void)r.u32(), std::out_of_range);
}

TEST(BytesTest, ReaderBadLengthPrefixThrows) {
  ByteWriter w;
  w.u64(1'000'000);  // claims a million bytes follow
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.blob(), std::out_of_range);
}

TEST(BytesTest, HexRoundTrip) {
  const Bytes b{0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(from_hex(to_hex(b)), b);
  EXPECT_THROW((void)from_hex("abc"), std::invalid_argument);
  EXPECT_THROW((void)from_hex("zz"), std::invalid_argument);
}

}  // namespace
}  // namespace dlr::crypto
