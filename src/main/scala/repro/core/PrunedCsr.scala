package repro.core

/** Hook for the paging experiment (Table 6): every column-array access can be
  * reported to a tracer that simulates an LRU page cache.
  */
trait AccessTracer {
  /** Called with the absolute column-array index of every entry access. */
  def onAccess(entryIndex: Int): Unit
}

/** The pruned dual-index CSR of Section 3.2.1 / 4.2.
  *
  * Per vertex the column holds one contiguous block: the *out*-list
  * (edges whose input-edge-list orientation is `(v, u)`) followed by the
  * *in*-list (edges `(u, v)`), each with its own mutable size field so a
  * removed entry can be swap-replaced by the last valid entry of its region
  * in O(1) — the paper's lazy-edge-removal mechanics.
  *
  * Pruning: vertices with `d(v) > tau * meanDegree` are *high-degree*; their
  * adjacency lists are omitted entirely, and edges between two high-degree
  * vertices (`E_h2h`) are left out of the column. Like the paper's external
  * edge file, `E_h2h` costs no partitioner memory: the build keeps only
  * their number, [[h2hCount]], and the streaming phase reads them from the
  * input edge list itself (`InformedStreaming.run(csr)`).
  * [[h2hEdgeIds]] lists their ids for callers that want them explicitly; it
  * is built on first access. `tau = None` disables pruning.
  *
  * The column is two parallel `Int` arrays: `nbr`, the paper's 4-byte
  * (b_id = 4) neighbour-id column, and `eid`, the edge id of the same entry,
  * so a partitioner can record assignments against the original edge list.
  * Scans that only test neighbours read `nbr` alone. A swap-removal moves
  * both. [[memoryFootprintBytes]] reports the paper's Section 4.2 model,
  * which counts the neighbour column only, so memory comparisons match the
  * paper's accounting.
  *
  * The column length is an `Int`: [[PrunedCsr.build]] rejects graphs whose
  * low-degree adjacency exceeds the largest JVM array.
  *
  * The layout arrays are `private[core]`. After the build, [[NePlusPlus]]'s
  * kernels are the only code that reads or swap-removes column entries, and
  * they report each access to [[tracer]].
  */
final class PrunedCsr private (
    val g: GraphData,
    private[core] val high: Array[Boolean],
    private[core] val blockStart: Array[Int],
    private[core] val outCap: Array[Int],
    private[core] val outSizeArr: Array[Int],
    private[core] val inSizeArr: Array[Int],
    private[core] val nbr: Array[Int],
    private[core] val eid: Array[Int],
    val h2hCount: Int,
) {

  /** Optional column-array access tracer (Table 6 paging simulation). */
  var tracer: AccessTracer = null

  /** True iff `v` was classified high-degree at build time. */
  def isHigh(v: Int): Boolean = high(v)

  /** Number of high-degree vertices. */
  lazy val highCount: Int = high.count(identity)

  /** Edges kept in memory (everything but the h2h set). */
  def inMemEdgeCount: Int = g.nE - h2hCount

  /** Ids of the h2h edges in ascending order, collected from the input edge
    * list on first access.
    */
  lazy val h2hEdgeIds: Array[Int] = collectH2h()

  // The scan sits outside the lazy initializer, which runs under a lock: there
  // the JIT left the loop uncompiled, about 170 ms per call on OK-proxy
  // against 2 ms here.
  private def collectH2h(): Array[Int] = {
    val ids = new Array[Int](h2hCount)
    var h = 0
    var e = 0
    while (h < ids.length) {
      if (high(g.src(e)) && high(g.dst(e))) { ids(h) = e; h += 1 }
      e += 1
    }
    ids
  }

  /** Total column length (2 entries per in-memory low/low edge, one per
    * low/high edge).
    */
  def colLength: Int = nbr.length

  /** Remaining (valid, unremoved) adjacency entries of `v`. */
  def validDegree(v: Int): Int = outSizeArr(v) + inSizeArr(v)

  // -- memory model ----------------------------------------------------------

  /** Byte footprint under the paper's Section 4.2 model: the column array
    * (`Σ_{v∈V_l} d'(v) * b_id`) plus [[PrunedCsr.fixedFootprintBytes]].
    */
  def memoryFootprintBytes(k: Int): Long =
    nbr.length.toLong * PrunedCsr.IdBytes + PrunedCsr.fixedFootprintBytes(g.nV, k)
}

object PrunedCsr {

  /** The paper's `b_id`: bytes per vertex id, and so per column entry. */
  final val IdBytes = 4L

  /** The τ-independent part of the Section 4.2 footprint: index arrays, size
    * fields, heap and lookup table (`6 * |V| * b_id`, the paper's printed
    * total) plus `k+1` dense bitsets (`⌈|V|(k+1)/8⌉`).
    */
  def fixedFootprintBytes(nV: Long, k: Int): Long =
    6L * nV * IdBytes + (nV * (k + 1) + 7) / 8

  /** Two-pass CSR build (Section 4.1 "Graph Building"): pass 1 computes
    * degrees (already cached on [[GraphData]]), the index arrays and the h2h
    * count; pass 2 inserts each edge with a low-degree endpoint into the
    * column array and skips the h2h edges.
    */
  def build(g: GraphData, tau: Option[Double]): PrunedCsr = {
    val nV = g.nV
    val high = tau match {
      case Some(t) =>
        require(t > 0, s"tau must be positive, got $t")
        g.highDegree(t)
      case None => new Array[Boolean](nV)
    }

    val outCnt = new Array[Int](nV)
    val inCnt = new Array[Int](nV)
    var h2h = 0
    var e = 0
    while (e < g.nE) {
      val u = g.src(e); val v = g.dst(e)
      if (high(u) && high(v)) h2h += 1
      else {
        if (!high(u)) outCnt(u) += 1
        if (!high(v)) inCnt(v) += 1
      }
      e += 1
    }

    val blockStart = blockStarts(outCnt, inCnt)
    val colLen = blockStart(nV)
    val nbr = new Array[Int](colLen)
    val eid = new Array[Int](colLen)
    val outFill = new Array[Int](nV)
    val inFill = new Array[Int](nV)
    e = 0
    while (e < g.nE) {
      val u = g.src(e); val w = g.dst(e)
      if (!high(u)) {
        val i = blockStart(u) + outFill(u)
        nbr(i) = w; eid(i) = e; outFill(u) += 1
      }
      if (!high(w)) {
        val i = blockStart(w) + outCnt(w) + inFill(w)
        nbr(i) = u; eid(i) = e; inFill(w) += 1
      }
      e += 1
    }

    new PrunedCsr(g, high, blockStart, outCnt, outFill, inFill, nbr, eid, h2h)
  }

  /** Largest column length the JVM can allocate as one array. */
  val MaxColumnLength: Int = Int.MaxValue - 8

  /** Block start of every vertex (its out-list, then its in-list) for the
    * given per-vertex entry counts, plus the total column length as the last
    * element. The running sum is kept in a `Long` so that an adjacency too
    * large for one array fails here instead of wrapping.
    */
  private[core] def blockStarts(outCnt: Array[Int], inCnt: Array[Int]): Array[Int] = {
    val nV = outCnt.length
    val starts = new Array[Int](nV + 1)
    var run = 0L
    var v = 0
    while (v < nV) {
      starts(v) = run.toInt
      run += outCnt(v).toLong + inCnt(v)
      require(run <= MaxColumnLength,
        s"low-degree adjacency needs more than $MaxColumnLength column entries " +
          s"(reached $run at vertex $v); raise tau or partition a smaller graph")
      v += 1
    }
    starts(nV) = run.toInt
    starts
  }
}
