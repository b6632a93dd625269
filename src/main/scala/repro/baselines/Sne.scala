package repro.baselines

import repro.core._

import scala.collection.mutable

/** Streaming NE (Zhang et al., KDD'17, §"SNE"): neighbourhood expansion run
  * over a bounded in-memory *sample* of the edge stream instead of the whole
  * graph. The buffer holds at most `SampleSize * ⌈|E|/k⌉` edges, with the
  * paper's recommended sample size of 2 (Appendix A); one partition at a
  * time is carved out of the buffered sub-graph with the NE heuristic, the
  * buffer is refilled from the stream, and the tail (buffer + unread stream)
  * lands in the last partition. The restricted visibility is what degrades
  * SNE's quality relative to NE — exactly the behaviour Table 4 / Figure 8
  * report.
  */
final class Sne extends EdgePartitioner {

  override def name: String = "SNE"

  override protected def compute(g: GraphData, k: Int): PartitionResult =
    PartitionResult(k, new Sne.Run(g, k).execute(), name)
}

object Sne {

  /** Buffer size in units of the partition capacity `⌈|E|/k⌉`. */
  final val SampleSize = 2

  /** One partitioning run; holds the buffered sub-graph as mutable adjacency
    * lists of packed `(neighbour, edgeId)` entries, indexed by vertex id and
    * allocated on a vertex's first buffered edge.
    */
  private final class Run(g: GraphData, k: Int) {
    private val capacity: Long = (g.nE.toLong + k - 1) / k
    private val bufferCap: Long = SampleSize * capacity
    private val adj = new Array[mutable.ArrayBuffer[Long]](g.nV)
    private val pids = Array.fill(g.nE)(-1)
    private val loads = new Array[Long](k)
    private var buffered = 0L
    private var streamPtr = 0

    // per-carve state, reset between partitions
    private val core = new DenseBitset(g.nV)
    private val secondary = new DenseBitset(g.nV)
    private val heap = new IndexedMinHeap(g.nV)

    def execute(): Array[Int] = {
      var p = 0
      while (p < k - 1) {
        fillBuffer()
        // each carve starts on a non-empty buffer and assigns the edges of
        // its first seed, so every pass raises loads(p)
        while (loads(p) < capacity && buffered > 0) {
          carve(p)
          fillBuffer()
        }
        p += 1
      }
      // tail: every unassigned edge, buffered or unread, goes to the last
      // partition
      var e = 0
      while (e < g.nE) { if (pids(e) < 0) pids(e) = k - 1; e += 1 }
      pids
    }

    private def fillBuffer(): Unit = {
      while (buffered < bufferCap && streamPtr < g.nE) {
        val e = streamPtr
        val u = g.src(e); val v = g.dst(e)
        val fwd = (v.toLong << 32) | (e.toLong & 0xffffffffL)
        val bwd = (u.toLong << 32) | (e.toLong & 0xffffffffL)
        listOf(u) += fwd
        listOf(v) += bwd
        buffered += 1
        streamPtr += 1
      }
    }

    private def listOf(v: Int): mutable.ArrayBuffer[Long] = {
      if (adj(v) eq null) adj(v) = mutable.ArrayBuffer.empty
      adj(v)
    }

    /** Expand one partition out of the buffered sub-graph with the NE
      * heuristic (min external degree, fresh seeds by smallest buffered id).
      * Lists only shrink within a carve, so the seed scan never revisits a
      * vertex. It stops before `nV`: an unassigned buffered edge has an
      * endpoint outside the core (an edge between two members of `C ∪ S` is
      * assigned when the second one joins), and that endpoint's list holds it.
      */
    private def carve(p: Int): Unit = {
      var seed = 0
      while (loads(p) < capacity && buffered > 0) {
        if (heap.nonEmpty) moveToCore(heap.popMin(), p)
        else {
          while (core.get(seed) || (adj(seed) eq null) || adj(seed).isEmpty) seed += 1
          moveToCore(seed, p)
        }
      }
      core.clearAll(); secondary.clearAll(); heap.clear()
    }

    private def moveToCore(v: Int, p: Int): Unit = {
      if (secondary.get(v)) secondary.clear(v)
      else secondaryWork(v, p, insertHeap = false)
      core.set(v)
      val snapshot = adj(v).toArray
      var i = 0
      while (i < snapshot.length) {
        val u = (snapshot(i) >>> 32).toInt
        if (!core.get(u) && !secondary.get(u)) secondaryWork(u, p, insertHeap = true)
        i += 1
      }
    }

    private def secondaryWork(v: Int, p: Int, insertHeap: Boolean): Unit = {
      var dext = 0
      val snapshot = adj(v).toArray
      var i = 0
      while (i < snapshot.length) {
        val u = (snapshot(i) >>> 32).toInt
        val eid = snapshot(i).toInt
        if (core.get(u) || secondary.get(u)) {
          pids(eid) = p; loads(p) += 1
          removeFromAdj(v, eid); removeFromAdj(u, eid)
          buffered -= 1
          if (heap.contains(u)) heap.decrease(u)
        } else dext += 1
        i += 1
      }
      secondary.set(v)
      if (insertHeap) heap.insert(v, dext)
    }

    private def removeFromAdj(v: Int, eid: Int): Unit = {
      val buf = adj(v)
      var i = 0
      while (i < buf.length) {
        if (buf(i).toInt == eid) {
          buf(i) = buf(buf.length - 1)
          buf.remove(buf.length - 1)
          return
        }
        i += 1
      }
    }
  }
}
