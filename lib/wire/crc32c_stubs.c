/* CRC32c (Castagnoli, reflected polynomial 0x82F63B78) over a range of an
   OCaml string.

   The state is the raw CRC register, before the final inversion, held in a
   native int on the OCaml side.  On x86-64 hosts with SSE4.2 the register
   is advanced by the [crc32] instruction; elsewhere by a slicing-by-8
   table loop.  Both compute the same function of (state, bytes).

   The instruction has a latency of three cycles and a throughput of one,
   so a long range is cut into three equal blocks whose CRCs run as three
   independent streams, each started from 0.  CRC is linear over GF(2):
   crc(s, A ++ B) = shift(crc(s, A), |B|) xor crc(0, B), where shift(c, n)
   multiplies c by x^(8n) modulo the polynomial.  For the two block sizes
   used here, shift is a fixed linear map of 32 bits, tabulated byte by
   byte at start-up. */

#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>

#define POLY 0x82F63B78u

/* slicing-by-8: table k advances a byte k positions further than table 0 */
static uint32_t crc_table[8][256];

/* shift tables for the two interleaved block sizes */
#define LONG_BLOCK 8192
#define SHORT_BLOCK 256
static uint32_t shift_long[4][256];
static uint32_t shift_short[4][256];

/* a * b modulo the polynomial, both reflected (x^0 is bit 31) */
static uint32_t multmodp(uint32_t a, uint32_t b)
{
  uint32_t m = (uint32_t)1 << 31, p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = b & 1 ? (b >> 1) ^ POLY : b >> 1;
  }
  return p;
}

static void fill_shift(uint32_t table[4][256], size_t bytes)
{
  /* x^(8 * bytes): feeding one zero byte through the byte table multiplies
     the register by x^8 */
  uint32_t xn = (uint32_t)1 << 31;
  for (size_t i = 0; i < bytes; i++)
    xn = crc_table[0][xn & 0xFF] ^ (xn >> 8);
  for (int k = 0; k < 4; k++)
    for (uint32_t v = 0; v < 256; v++)
      table[k][v] = multmodp(xn, v << (8 * k));
}

static uint32_t shift(uint32_t table[4][256], uint32_t c)
{
  return table[0][c & 0xFF] ^ table[1][(c >> 8) & 0xFF]
         ^ table[2][(c >> 16) & 0xFF] ^ table[3][c >> 24];
}

static uint64_t load_le64(const unsigned char *p)
{
  return (uint64_t)p[0] | (uint64_t)p[1] << 8 | (uint64_t)p[2] << 16
         | (uint64_t)p[3] << 24 | (uint64_t)p[4] << 32 | (uint64_t)p[5] << 40
         | (uint64_t)p[6] << 48 | (uint64_t)p[7] << 56;
}

static uint32_t crc_table_loop(uint32_t c, const unsigned char *p, size_t len)
{
  while (len >= 8) {
    uint64_t w = load_le64(p) ^ c;
    c = crc_table[7][w & 0xFF] ^ crc_table[6][(w >> 8) & 0xFF]
        ^ crc_table[5][(w >> 16) & 0xFF] ^ crc_table[4][(w >> 24) & 0xFF]
        ^ crc_table[3][(w >> 32) & 0xFF] ^ crc_table[2][(w >> 40) & 0xFF]
        ^ crc_table[1][(w >> 48) & 0xFF] ^ crc_table[0][w >> 56];
    p += 8;
    len -= 8;
  }
  while (len--) c = crc_table[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_HW_PATH 1
#include <nmmintrin.h>

static int have_sse42;

__attribute__((target("sse4.2"))) static uint64_t
crc_three(uint64_t c, const unsigned char **pp, size_t *lenp, size_t block,
          uint32_t table[4][256])
{
  const unsigned char *p = *pp;
  size_t len = *lenp;
  while (len >= 3 * block) {
    uint64_t c1 = 0, c2 = 0, w;
    const unsigned char *end = p + block;
    do {
      memcpy(&w, p, 8);
      c = _mm_crc32_u64(c, w);
      memcpy(&w, p + block, 8);
      c1 = _mm_crc32_u64(c1, w);
      memcpy(&w, p + 2 * block, 8);
      c2 = _mm_crc32_u64(c2, w);
      p += 8;
    } while (p < end);
    c = shift(table, (uint32_t)c) ^ c1;
    c = shift(table, (uint32_t)c) ^ c2;
    p += 2 * block;
    len -= 3 * block;
  }
  *pp = p;
  *lenp = len;
  return c;
}

__attribute__((target("sse4.2"))) static uint32_t
crc_hw(uint32_t crc, const unsigned char *p, size_t len)
{
  uint64_t c = crc, w;
  while (len > 0 && ((uintptr_t)p & 7) != 0) {
    c = _mm_crc32_u8((uint32_t)c, *p++);
    len--;
  }
  c = crc_three(c, &p, &len, LONG_BLOCK, shift_long);
  c = crc_three(c, &p, &len, SHORT_BLOCK, shift_short);
  while (len >= 8) {
    memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    c = _mm_crc32_u8((uint32_t)c, *p++);
    len--;
  }
  return (uint32_t)c;
}
#endif

/* Runs once, from the OCaml module's initialisation, before any other
   domain can checksum. */
value fdb_crc32c_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = c & 1 ? (c >> 1) ^ POLY : c >> 1;
    crc_table[0][n] = c;
  }
  for (uint32_t n = 0; n < 256; n++)
    for (int k = 1; k < 8; k++)
      crc_table[k][n] =
          crc_table[0][crc_table[k - 1][n] & 0xFF] ^ (crc_table[k - 1][n] >> 8);
  fill_shift(shift_long, LONG_BLOCK);
  fill_shift(shift_short, SHORT_BLOCK);
#ifdef HAVE_HW_PATH
  __builtin_cpu_init();
  have_sse42 = __builtin_cpu_supports("sse4.2");
#endif
  return Val_unit;
}

/* The caller has checked that [pos, pos + len) lies inside [s]. */
intnat fdb_crc32c_update(intnat crc, value s, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + pos;
#ifdef HAVE_HW_PATH
  if (have_sse42) return crc_hw((uint32_t)crc, p, (size_t)len);
#endif
  return crc_table_loop((uint32_t)crc, p, (size_t)len);
}

intnat fdb_crc32c_update_table(intnat crc, value s, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + pos;
  return crc_table_loop((uint32_t)crc, p, (size_t)len);
}

value fdb_crc32c_update_byte(value crc, value s, value pos, value len)
{
  return Val_long(
      fdb_crc32c_update(Long_val(crc), s, Long_val(pos), Long_val(len)));
}

value fdb_crc32c_update_table_byte(value crc, value s, value pos, value len)
{
  return Val_long(
      fdb_crc32c_update_table(Long_val(crc), s, Long_val(pos), Long_val(len)));
}
