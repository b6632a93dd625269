package repro.baselines

import repro.core._

/** Baseline NE (Zhang et al., KDD'17) with the *reference implementation's*
  * data layout, which Section 3.2.2 of the HEP paper describes and
  * criticises: an unsorted edge list plus per-edge validity bookkeeping.
  *
  *  - The adjacency ("column") array stores **edge ids**, not neighbour ids:
  *    resolving a neighbour costs an indirect lookup into the |E|-sized
  *    src/dst arrays — the random access / cache-miss pattern the paper
  *    blames for NE's runtime.
  *  - Edge validity is tracked **eagerly**: every traversal consults the
  *    per-edge assignment state; nothing is ever physically removed, so
  *    seed search must also rescan flags.
  *  - The complete graph is resident: no pruning, no h2h diversion.
  *
  * The expansion heuristic itself (min-external-degree, sequential seed
  * scan, spill-over, assign-remaining last partition) is identical to NE++,
  * so NE and NE++ reach comparable partitioning quality — the paper's
  * observation — while runtime and memory differ.
  */
final class NeBaseline extends EdgePartitioner {

  override def name: String = "NE"

  override protected def compute(g: GraphData, k: Int): PartitionResult = {
    val t0 = System.nanoTime()
    val run = new NeBaseline.Run(g, k)
    run.execute()
    val ms = (System.nanoTime() - t0) / 1000000L
    PartitionResult(k, run.pids, name, ms, Some(NeBaseline.memoryModelBytes(g, k)))
  }
}

object NeBaseline {

  /** Section 4.2-style accounting for the reference layout: a column array
    * of 2|E| edge ids, the unsorted edge list itself (2 ids per edge), one
    * validity byte per edge, index array, core/secondary bitsets and the
    * heap + lookup table.
    */
  def memoryModelBytes(g: GraphData, k: Int): Long = {
    val bId = 4L
    2L * g.nE * bId +              // column array of edge ids
      2L * g.nE * bId +            // unsorted edge list (src, dst)
      g.nE.toLong +                // per-edge validity flags
      4L * g.nV * bId +            // index array + heap + lookup table
      (g.nV.toLong * (k + 1) + 7) / 8
  }

  private final class Run(g: GraphData, k: Int) {
    val pids: Array[Int] = Array.fill(g.nE)(-1)
    private val loads = new Array[Long](k)

    // CSR over edge ids, both directions per edge (the reference layout)
    private val start = new Array[Int](g.nV + 1)
    private val adj = new Array[Int](2 * g.nE)
    locally {
      val deg = g.degrees
      var v = 0; var run0 = 0
      while (v < g.nV) { start(v) = run0; run0 += deg(v); v += 1 }
      start(g.nV) = run0
      val fill = new Array[Int](g.nV)
      var e = 0
      while (e < g.nE) {
        adj(start(g.src(e)) + fill(g.src(e))) = e; fill(g.src(e)) += 1
        adj(start(g.dst(e)) + fill(g.dst(e))) = e; fill(g.dst(e)) += 1
        e += 1
      }
    }

    private val core = new DenseBitset(g.nV)
    private val secondary = new DenseBitset(g.nV)
    private val members = new scala.collection.mutable.ArrayBuffer[Int]()
    private val heap = new IndexedMinHeap(g.nV)
    private val capacity: Long = (g.nE.toLong + k - 1) / k
    private var assigned = 0L
    private var seedPtr = 0

    /** The other endpoint of `eid` as seen from `v` — an indirect lookup
      * into the unsorted edge list, as in the reference implementation.
      */
    private def other(v: Int, eid: Int): Int =
      if (g.src(eid) == v) g.dst(eid) else g.src(eid)

    def execute(): Unit = {
      var i = 0
      while (i < k - 1 && assigned < g.nE) {
        expand(i)
        resetSecondary()
        i += 1
      }
      if (assigned < g.nE) assignRemaining(k - 1)
      require(assigned == g.nE, s"NE assigned $assigned of ${g.nE} edges")
    }

    private def expand(i: Int): Unit = {
      var exhausted = false
      while (!exhausted && loads(i) < capacity && assigned < g.nE) {
        if (heap.nonEmpty) moveToCore(heap.popMin(), i)
        else {
          val s = nextSeed()
          if (s < 0) exhausted = true else moveToCore(s, i)
        }
      }
    }

    private def nextSeed(): Int = {
      while (seedPtr < g.nV) {
        val v = seedPtr
        if (!core.get(v) && hasUnassignedEdge(v)) return v
        seedPtr += 1
      }
      -1
    }

    private def hasUnassignedEdge(v: Int): Boolean = {
      var i = start(v)
      while (i < start(v + 1)) { if (pids(adj(i)) < 0) return true; i += 1 }
      false
    }

    private def moveToCore(v: Int, i: Int): Unit = {
      if (secondary.get(v)) secondary.clear(v)
      else secondaryWork(v, i, insertHeap = false)
      core.set(v)
      var idx = start(v)
      while (idx < start(v + 1)) {
        val eid = adj(idx)
        if (pids(eid) < 0) {
          val u = other(v, eid)
          if (!core.get(u) && !secondary.get(u)) secondaryWork(u, i, insertHeap = true)
        }
        idx += 1
      }
    }

    private def secondaryWork(v: Int, i: Int, insertHeap: Boolean): Unit = {
      var dext = 0
      var idx = start(v)
      while (idx < start(v + 1)) {
        val eid = adj(idx)
        if (pids(eid) < 0) {
          val u = other(v, eid)
          if (core.get(u) || secondary.get(u)) {
            assignEdge(eid, i)
            if (heap.contains(u)) heap.decrease(u)
          } else dext += 1
        }
        idx += 1
      }
      secondary.set(v)
      members += v
      if (insertHeap) heap.insert(v, dext)
    }

    private def assignEdge(eid: Int, i: Int): Unit = {
      var p = i
      while (p < k - 1 && loads(p) >= capacity) p += 1
      pids(eid) = p
      loads(p) += 1
      assigned += 1
    }

    private def resetSecondary(): Unit = {
      var m = 0
      while (m < members.length) { secondary.clear(members(m)); m += 1 }
      members.clear()
      heap.clear()
    }

    private def assignRemaining(last: Int): Unit = {
      var v = 0
      while (v < g.nV) {
        if (!core.get(v)) {
          var idx = start(v)
          while (idx < start(v + 1)) {
            val eid = adj(idx)
            // each remaining edge is visited from both endpoints; the
            // validity flag makes the second visit a no-op
            if (pids(eid) < 0) {
              pids(eid) = last
              loads(last) += 1
              assigned += 1
            }
            idx += 1
          }
        }
        v += 1
      }
    }
  }
}
