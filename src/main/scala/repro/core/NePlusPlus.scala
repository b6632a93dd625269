package repro.core

import java.util.stream.IntStream

/** How assigned edges are invalidated during neighbourhood expansion.
  *
  * NE++ has one mode, [[EdgeRemoval.Lazy]] (Section 3.2.2): nothing is
  * touched during an expansion; after each partition a clean-up pass
  * swap-removes, from the adjacency lists of the vertices still in `S_i`,
  * every entry whose edge was assigned (neighbour in `C ∪ S_i` or
  * high-degree). The type exists only to keep the [[NePlusPlus]] constructor
  * signature; the NE baseline with eager per-edge bookkeeping is the
  * separate engine `baselines.NeBaseline`.
  */
sealed trait EdgeRemoval
object EdgeRemoval {
  case object Lazy extends EdgeRemoval
}

/** The in-memory neighbourhood-expansion phase of HEP (Algorithms 1–3 of the
  * paper).
  *
  * Faithfulness notes (see DESIGN.md §2):
  *  - high-degree vertices are treated as *a-priori members of the secondary
  *    set*: an edge to one is assigned the moment its low-degree endpoint
  *    joins `C ∪ S_i`, and high-degree vertices never enter the heap;
  *  - the expansion of partition `i` picks the secondary vertex with minimum
  *    external degree from an indexed min-heap; when the heap drains, a new
  *    seed is found by a monotone sequential id scan (Section 3.2.3);
  *  - when partition `i` reaches the adapted capacity bound
  *    `⌈|E \ E_h2h| / k⌉`, further edges spill to the next not-full
  *    partition;
  *  - the last partition is built by Algorithm 3: every remaining valid
  *    entry is an unassigned edge, assigned from the out-list of its
  *    low-degree left-hand vertex (plus in-entries from high-degree
  *    neighbours, which exist only on the low-degree side).
  *
  * Layout: one state byte per vertex (free, secondary, core or high) answers
  * every "is `u` in `C ∪ S_i ∪ V_h`" test with one load, and the expansion,
  * secondary-scan and clean-up kernels walk the CSR's neighbour column
  * directly over loop-local bounds, reading the edge-id column only for
  * entries they assign or move. The kernels report column accesses to
  * `csr.tracer` (Table 6's paging model): one report per column entry read,
  * its neighbour and edge id together, and two more per swap-removal, for
  * the removed entry and the region's last entry that replaces it.
  * Every assignment, the last partition's included, goes through
  * `assignEdge` and reaches `pids` through a small write-back buffer,
  * flushed when full and after every partition: `pids` is indexed by input
  * edge id, so each write is a random access, and a batch of them overlaps
  * the cache misses that one write per assignment would wait for inside the
  * kernels. The double-assignment check runs on write-back; loads and
  * replica sets are updated at once.
  *
  * The engine mutates `pids`, `loads` and `replicas` in place so that the
  * streaming phase continues from the same state (Section 3.3).
  */
final class NePlusPlus(
    csr: PrunedCsr,
    k: Int,
    pids: Array[Int],
    loads: Array[Long],
    replicas: Array[DenseBitset],
    removal: EdgeRemoval,
) {
  import NePlusPlus._

  require(k >= 1, s"k must be >= 1, got $k")
  private val nV = csr.g.nV
  private val blockStart = csr.blockStart
  private val outCap = csr.outCap
  private val outSize = csr.outSizeArr
  private val inSize = csr.inSizeArr
  private val nbr = csr.nbr
  private val eid = csr.eid

  private val state: Array[Byte] = {
    val s = new Array[Byte](nV)
    var v = 0
    while (v < nV) { if (csr.isHigh(v)) s(v) = High; v += 1 }
    s
  }
  /** Vertices moved into `S_i` during the current partition, in order. */
  private val members = new Array[Int](nV)
  private var memberCount = 0
  private val heap = new IndexedMinHeap(nV)
  /** Expansion assignments not yet written to `pids`, in assignment order. */
  private val pendingEid = new Array[Int](WriteBackBatch)
  private val pendingPid = new Array[Int](WriteBackBatch)
  private var pending = 0

  /** Adapted capacity bound (Section 3.2.3): in-memory edges are spread over
    * the k partitions; h2h edges are the streaming phase's budget.
    */
  val capacity: Long = (csr.inMemEdgeCount.toLong + k - 1) / k

  private var assigned = 0L
  private var seedPtr = 0
  private var cores = 0
  private var seeds = 0L
  private var spilled = 0L
  private var parallelRounds = 0

  /** Vertices moved to the core set (exposed for tests/diagnostics). */
  def coreSize: Int = cores

  /** Expansions started from a fresh seed of the sequential scan. */
  def seedsTaken: Long = seeds

  /** Edges assigned to a partition other than the one being expanded,
    * because it had reached [[capacity]].
    */
  def spilledEdges: Long = spilled

  /** Clean-up rounds run as parallel streams. */
  def parallelCleanUps: Int = parallelRounds

  /** Run the complete in-memory phase. */
  def run(): Unit = {
    val total = csr.inMemEdgeCount.toLong
    var i = 0
    while (i < k - 1 && assigned < total) {
      expand(i)
      writeBack()
      cleanUp()
      resetSecondary()
      i += 1
    }
    if (assigned < total) assignRemaining(k - 1)
    require(assigned == total,
      s"in-memory phase assigned $assigned of $total edges")
  }

  // -- expansion -------------------------------------------------------------

  private def expand(i: Int): Unit = {
    val total = csr.inMemEdgeCount.toLong
    var exhausted = false
    while (!exhausted && loads(i) < capacity && assigned < total) {
      if (heap.nonEmpty) moveToCore(heap.popMin(), i)
      else {
        val s = nextSeed()
        if (s < 0) exhausted = true
        else { seeds += 1; moveToCore(s, i) }
      }
    }
  }

  /** Sequential-scan initialisation (Section 3.2.3): a vertex rejected once
    * can never become suitable again (its valid degree only shrinks and the
    * core set only grows), so the pointer never revisits. The scan runs only
    * once the heap is empty, when every secondary vertex is already core.
    */
  private def nextSeed(): Int = {
    while (seedPtr < nV) {
      val v = seedPtr
      if (state(v) == Free && outSize(v) + inSize(v) > 0) return v
      seedPtr += 1
    }
    -1
  }

  private def moveToCore(v: Int, i: Int): Unit = {
    // a fresh seed assigns its C/S/high edges first
    if (state(v) != Secondary) secondaryWork(v, i, insertHeap = false)
    state(v) = Core
    cores += 1
    val out = blockStart(v)
    expandKernel(out, out + outSize(v), i)
    val in = out + outCap(v)
    expandKernel(in, in + inSize(v), i)
  }

  /** Expansion kernel: move every free neighbour in `[from, until)` into
    * `S_i`.
    */
  private def expandKernel(from: Int, until: Int, i: Int): Unit = {
    val tracer = csr.tracer
    var idx = from
    while (idx < until) {
      if (tracer ne null) tracer.onAccess(idx)
      val u = nbr(idx)
      if (state(u) == Free) secondaryWork(u, i, insertHeap = true)
      idx += 1
    }
  }

  /** Move `v` into `S_i`: assign every edge towards `C ∪ S_i ∪ V_h`,
    * decrement the external degree of affected heap members, then insert `v`
    * with its own external degree.
    */
  private def secondaryWork(v: Int, i: Int, insertHeap: Boolean): Unit = {
    val out = blockStart(v)
    val in = out + outCap(v)
    val dext = secondaryKernel(v, out, out + outSize(v), i) +
      secondaryKernel(v, in, in + inSize(v), i)
    state(v) = Secondary
    members(memberCount) = v
    memberCount += 1
    if (insertHeap) heap.insert(v, dext)
  }

  /** Secondary-scan kernel over `[from, until)` of `v`'s column: assigns the
    * edges to non-free neighbours and returns the count of free (external)
    * ones. Every secondary vertex is in the heap: seeds go straight to the
    * core, popped vertices leave both.
    */
  private def secondaryKernel(v: Int, from: Int, until: Int, i: Int): Int = {
    val tracer = csr.tracer
    var dext = 0
    var idx = from
    while (idx < until) {
      if (tracer ne null) tracer.onAccess(idx)
      val u = nbr(idx)
      val s = state(u)
      if (s == Free) dext += 1
      else {
        assignEdge(eid(idx), v, u, i)
        if (s == Secondary) heap.decrease(u)
      }
      idx += 1
    }
    dext
  }

  /** Assign with cascading spill-over past full partitions (Algorithm 1,
    * lines 26–28); the last partition never spills. The `pids` entry is
    * written by [[writeBack]].
    */
  private def assignEdge(e: Int, a: Int, b: Int, i: Int): Unit = {
    var p = i
    while (p < k - 1 && loads(p) >= capacity) p += 1
    if (p != i) spilled += 1
    pendingEid(pending) = e
    pendingPid(pending) = p
    pending += 1
    if (pending == WriteBackBatch) writeBack()
    loads(p) += 1
    assigned += 1
    replicas(p).set(a)
    replicas(p).set(b)
  }

  /** Write the buffered assignments to `pids`, each to a so far unassigned
    * edge.
    */
  private def writeBack(): Unit = {
    var j = 0
    while (j < pending) {
      val e = pendingEid(j)
      require(pids(e) < 0, s"double assignment of edge $e")
      pids(e) = pendingPid(j)
      j += 1
    }
    pending = 0
  }

  // -- lazy clean-up (Algorithm 2) -------------------------------------------

  /** Clean the lists of the members still in `S_i`. Members now in the core,
    * seeds included, are skipped: no later step reads a core vertex's lists.
    *
    * Each member's clean-up swap-removes entries inside its own column
    * block and size fields, and only reads `state`, so members can be
    * cleaned in any order and at once: a round with at least
    * [[NePlusPlus.MinParallelWork]] valid entries to scan runs over its
    * members as a parallel stream, on the fork/join pool as
    * [[PrunedCsr.build]]'s two fill scans do, with the same rules for a
    * task's exception and its allocation. With a tracer attached the round
    * stays on the calling thread, so the tracer sees the accesses in the
    * sequential order.
    */
  private def cleanUp(): Unit = {
    if ((csr.tracer eq null) && cleanUpWork() >= MinParallelWork) {
      parallelRounds += 1
      IntStream.range(0, memberCount).parallel().forEach(m => cleanMember(members(m)))
    } else {
      var m = 0
      while (m < memberCount) { cleanMember(members(m)); m += 1 }
    }
  }

  /** Valid entries of the members still in `S_i`: what [[cleanUp]] scans. */
  private def cleanUpWork(): Long = {
    var work = 0L
    var m = 0
    while (m < memberCount) {
      val v = members(m)
      if (state(v) == Secondary) work += outSize(v) + inSize(v)
      m += 1
    }
    work
  }

  /** Clean member `v`'s out- and in-list if it is still in `S_i`. */
  private def cleanMember(v: Int): Unit =
    if (state(v) == Secondary) {
      val out = blockStart(v)
      outSize(v) = cleanKernel(out, outSize(v))
      inSize(v) = cleanKernel(out + outCap(v), inSize(v))
    }

  /** Clean-up kernel: swap-remove every entry of `[from, from + size)` whose
    * neighbour is not free, and return the region's new size.
    */
  private def cleanKernel(from: Int, size: Int): Int = {
    val tracer = csr.tracer
    var idx = from
    var last = from + size - 1
    while (idx <= last) {
      if (tracer ne null) tracer.onAccess(idx)
      if (state(nbr(idx)) != Free) {
        if (tracer ne null) { tracer.onAccess(idx); tracer.onAccess(last) }
        nbr(idx) = nbr(last)
        eid(idx) = eid(last)
        last -= 1
      } else idx += 1
    }
    last + 1 - from
  }

  private def resetSecondary(): Unit = {
    var m = 0
    while (m < memberCount) {
      val v = members(m)
      if (state(v) == Secondary) state(v) = Free
      m += 1
    }
    memberCount = 0
    heap.clear()
  }

  // -- last partition (Algorithm 3) ------------------------------------------

  /** Every vertex is free, core or high here: the last expansion's secondary
    * set has been reset.
    */
  private def assignRemaining(last: Int): Unit = {
    val tracer = csr.tracer
    var v = 0
    while (v < nV) {
      if (state(v) == Free) {
        var idx = blockStart(v); var end = idx + outSize(v)
        while (idx < end) {
          if (tracer ne null) tracer.onAccess(idx)
          assignEdge(eid(idx), v, nbr(idx), last)
          idx += 1
        }
        idx = blockStart(v) + outCap(v); end = idx + inSize(v)
        while (idx < end) {
          if (tracer ne null) tracer.onAccess(idx)
          val u = nbr(idx)
          // low/low in-entries are covered from the neighbour's out-list;
          // low/high edges exist only on this (low) side.
          if (state(u) == High) assignEdge(eid(idx), v, u, last)
          idx += 1
        }
      }
      v += 1
    }
    writeBack()
  }
}

object NePlusPlus {
  /** Capacity of the `pids` write-back buffer (32 KiB of ids). */
  private final val WriteBackBatch = 4096

  /** Least valid entries to scan for which a clean-up round is split across
    * the fork/join pool; below it, forking costs more than it saves. A
    * threshold on the size of the input, not an option.
    */
  private[core] final val MinParallelWork = 1 << 15

  // Per-vertex states. A seed goes Free → Secondary → Core within one
  // moveToCore; high-degree vertices are High from construction on.
  private final val Free: Byte = 0
  private final val Secondary: Byte = 1
  private final val Core: Byte = 2
  private final val High: Byte = 3
}
