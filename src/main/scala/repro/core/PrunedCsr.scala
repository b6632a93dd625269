package repro.core

import java.util.stream.IntStream

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
  * [[h2hEdgeIds]] lists their ids for callers that want them explicitly,
  * scanning the edge list on each call. `tau = None` disables pruning.
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
    * list on each call.
    */
  def h2hEdgeIds: Array[Int] = {
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

  /** CSR build (Section 4.1 "Graph Building"). The degrees give the layout:
    * a low-degree vertex's block holds exactly `d(v)` entries, its out-list
    * then its in-list, and a high-degree vertex's block is empty. Two scans
    * of the edge list then fill the column, as the two tasks of a parallel
    * stream (on the fork/join common pool, with the calling thread helping,
    * or on the caller's own pool when the caller is a fork/join worker):
    *  - the out-task scans edges in ascending id order, appends each edge
    *    to its low-degree left endpoint's out-list and counts the h2h edges;
    *  - the in-task scans edges in descending id order and prepends each
    *    edge to its low-degree right endpoint's in-list, which ends at the
    *    next vertex's block start.
    * So both lists hold their edges in ascending edge-id order, and the
    * out-list's final size is where the in-list begins. The tasks write
    * disjoint entries and size fields.
    *
    * A task's exception reaches the caller, possibly while the other task
    * is still running; any such exception is a bug, and it fails the call.
    * Tasks allocate nothing: the benchmark's `alloc_bytes` counts only the
    * calling thread, so memory a pool thread allocated would go unmeasured.
    */
  def build(g: GraphData, tau: Option[Double]): PrunedCsr = {
    val high = tau match {
      case Some(t) =>
        require(t > 0, s"tau must be positive, got $t")
        g.highDegree(t)
      case None => new Array[Boolean](g.nV)
    }
    val blockStart = blockStarts(g.degrees, high)
    val nbr = new Array[Int](blockStart(g.nV))
    val eid = new Array[Int](nbr.length)
    val outSize = new Array[Int](g.nV)
    val inSize = new Array[Int](g.nV)
    val h2h = IntStream.range(0, 2).parallel().map { task =>
      if (task == 0) fillOut(g, high, blockStart, outSize, nbr, eid)
      else { fillIn(g, high, blockStart, inSize, nbr, eid); 0 }
    }.sum()
    new PrunedCsr(g, high, blockStart, outSize.clone(), outSize, inSize, nbr, eid, h2h)
  }

  /** Fills every out-list in ascending edge-id order; returns the h2h count. */
  private def fillOut(g: GraphData, high: Array[Boolean], blockStart: Array[Int],
                      outSize: Array[Int], nbr: Array[Int], eid: Array[Int]): Int = {
    val src = g.src; val dst = g.dst
    var h2h = 0
    var e = 0
    while (e < src.length) {
      val u = src(e); val w = dst(e)
      if (!high(u)) {
        val i = blockStart(u) + outSize(u)
        nbr(i) = w; eid(i) = e; outSize(u) += 1
      } else if (high(w)) h2h += 1
      e += 1
    }
    h2h
  }

  /** Fills every in-list from its end, scanning edge ids downwards. */
  private def fillIn(g: GraphData, high: Array[Boolean], blockStart: Array[Int],
                     inSize: Array[Int], nbr: Array[Int], eid: Array[Int]): Unit = {
    val src = g.src; val dst = g.dst
    var e = dst.length - 1
    while (e >= 0) {
      val w = dst(e)
      if (!high(w)) {
        inSize(w) += 1
        val i = blockStart(w + 1) - inSize(w)
        nbr(i) = src(e); eid(i) = e
      }
      e -= 1
    }
  }

  /** Largest column length the JVM can allocate as one array. */
  val MaxColumnLength: Int = Int.MaxValue - 8

  /** Block start of every vertex (its out-list, then its in-list): `deg(v)`
    * entries for a low-degree vertex, none for a high-degree one, plus the
    * total column length as the last element. The running sum is kept in a
    * `Long` (it cannot wrap: `|V| * Int.MaxValue < Long.MaxValue`) so that an
    * adjacency too large for one array fails here.
    */
  private[core] def blockStarts(deg: Array[Int], high: Array[Boolean]): Array[Int] = {
    val nV = deg.length
    val starts = new Array[Int](nV + 1)
    var run = 0L
    var v = 0
    while (v < nV) {
      starts(v) = run.toInt
      if (!high(v)) run += deg(v)
      v += 1
    }
    require(run <= MaxColumnLength, s"low-degree adjacency needs $run column entries, more " +
      s"than the $MaxColumnLength of one array; raise tau or partition a smaller graph")
    starts(nV) = run.toInt
    starts
  }
}
