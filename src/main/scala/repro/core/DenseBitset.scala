package repro.core

/** Dense fixed-capacity bitset over vertex ids `[0, n)`.
  *
  * This is the data structure the paper budgets at `|V| * (k+1) / 8` bytes
  * (Section 4.2, item 4): one bitset per partition for the secondary /
  * replica sets plus one for the global core set. It is deliberately
  * minimal — set/get/clear, a popcount and word-level reads — so its cost
  * model matches the paper's accounting exactly.
  *
  * @param n capacity in bits; ids outside `[0, n)` are rejected by `require`
  */
final class DenseBitset(val n: Int) {
  require(n >= 0, s"bitset capacity must be non-negative, got $n")

  private val words = new Array[Long]((n + 63) >>> 6)

  /** Set bit `i`. */
  def set(i: Int): Unit = {
    require(i >= 0 && i < n, s"bit $i out of range [0, $n)")
    words(i >>> 6) |= (1L << (i & 63))
  }

  /** Clear bit `i`. */
  def clear(i: Int): Unit = {
    require(i >= 0 && i < n, s"bit $i out of range [0, $n)")
    words(i >>> 6) &= ~(1L << (i & 63))
  }

  /** Test bit `i`. */
  def get(i: Int): Boolean = {
    require(i >= 0 && i < n, s"bit $i out of range [0, $n)")
    (words(i >>> 6) & (1L << (i & 63))) != 0L
  }

  /** Number of set bits. */
  def cardinality: Int = {
    var c = 0; var w = 0
    while (w < words.length) { c += java.lang.Long.bitCount(words(w)); w += 1 }
    c
  }

  /** Number of 64-bit words backing the bitset, `ceil(n / 64)`. */
  def wordCount: Int = words.length

  /** Word `i` of the bitset: bit `j` of it is bit `64 * i + j` of the set.
    * Bits at or above `n` in the last word are always zero.
    */
  def word(i: Int): Long = words(i)

  /** Clear all bits. */
  def clearAll(): Unit = java.util.Arrays.fill(words, 0L)
}
