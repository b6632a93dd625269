package repro.core

/** Binary min-heap over vertex ids keyed by external degree, with an id →
  * heap-position lookup table for O(log n) `decrease` by vertex id.
  *
  * This is the "min heap to store the external degrees of vertices in S_i and
  * a lookup table to directly access the entry of a vertex in the min heap by
  * its ID" of the paper's Section 4.2 (item 5). Capacity is the number of
  * vertices; both arrays are allocated once (2 * |V| * b_id bytes).
  */
final class IndexedMinHeap(val capacity: Int) {
  require(capacity >= 0, s"heap capacity must be non-negative, got $capacity")

  private val heapIds  = new Array[Int](capacity)   // heap slot -> vertex id
  private val keys     = new Array[Int](capacity)   // heap slot -> key (d_ext)
  private val posOf    = new Array[Int](capacity)   // vertex id -> heap slot, -1 if absent
  java.util.Arrays.fill(posOf, -1)
  private var count = 0

  def nonEmpty: Boolean = count > 0
  def contains(v: Int): Boolean = posOf(v) >= 0

  /** Insert vertex `v` with key `key`; `v` must not already be present. */
  def insert(v: Int, key: Int): Unit = {
    require(posOf(v) < 0, s"vertex $v already in heap")
    heapIds(count) = v; keys(count) = key; posOf(v) = count
    count += 1
    siftUp(count - 1)
  }

  /** Decrease the key of `v` by one. */
  def decrease(v: Int): Unit = {
    val p = posOf(v)
    require(p >= 0, s"vertex $v not in heap")
    keys(p) -= 1
    siftUp(p)
  }

  /** Pop and return the vertex id with the minimum key. */
  def popMin(): Int = {
    require(count > 0, "popMin on empty heap")
    val top = heapIds(0)
    posOf(top) = -1
    count -= 1
    if (count > 0) {
      heapIds(0) = heapIds(count); keys(0) = keys(count); posOf(heapIds(0)) = 0
      siftDown(0)
    }
    top
  }

  /** Drop every entry (used between partition expansions). */
  def clear(): Unit = {
    var i = 0
    while (i < count) { posOf(heapIds(i)) = -1; i += 1 }
    count = 0
  }

  private def swap(a: Int, b: Int): Unit = {
    val vi = heapIds(a); val ki = keys(a)
    heapIds(a) = heapIds(b); keys(a) = keys(b)
    heapIds(b) = vi; keys(b) = ki
    posOf(heapIds(a)) = a; posOf(heapIds(b)) = b
  }

  private def siftUp(i0: Int): Unit = {
    var i = i0
    while (i > 0 && keys((i - 1) >>> 1) > keys(i)) {
      swap((i - 1) >>> 1, i); i = (i - 1) >>> 1
    }
  }

  private def siftDown(i0: Int): Unit = {
    var i = i0
    var done = false
    while (!done) {
      val l = 2 * i + 1; val r = l + 1
      var m = i
      if (l < count && keys(l) < keys(m)) m = l
      if (r < count && keys(r) < keys(m)) m = r
      if (m == i) done = true else { swap(i, m); i = m }
    }
  }
}
