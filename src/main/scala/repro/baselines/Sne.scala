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
    * lists of packed `(neighbour, edgeId)` entries.
    */
  private final class Run(g: GraphData, k: Int) {
    private val capacity: Long = (g.nE.toLong + k - 1) / k
    private val bufferCap: Long = SampleSize * capacity
    private val adj = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Long]]
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
        while (loads(p) < capacity && (buffered > 0 || streamPtr < g.nE)) {
          if (buffered == 0) fillBuffer()
          carve(p)
          fillBuffer()
        }
        p += 1
      }
      // tail: everything left goes to the last partition
      adj.valuesIterator.foreach(_.foreach { packed =>
        val eid = packed.toInt
        if (pids(eid) < 0) { pids(eid) = k - 1; loads(k - 1) += 1 }
      })
      while (streamPtr < g.nE) {
        if (pids(streamPtr) < 0) { pids(streamPtr) = k - 1; loads(k - 1) += 1 }
        streamPtr += 1
      }
      pids
    }

    private def fillBuffer(): Unit = {
      while (buffered < bufferCap && streamPtr < g.nE) {
        val e = streamPtr
        val u = g.src(e); val v = g.dst(e)
        val fwd = (v.toLong << 32) | (e.toLong & 0xffffffffL)
        val bwd = (u.toLong << 32) | (e.toLong & 0xffffffffL)
        adj.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += fwd
        adj.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += bwd
        buffered += 1
        streamPtr += 1
      }
    }

    /** Expand one partition out of the buffered sub-graph with the NE
      * heuristic (min external degree, fresh seeds by smallest buffered id).
      */
    private def carve(p: Int): Unit = {
      val seeds = adj.keysIterator.filter(v => adj(v).nonEmpty).toArray.sorted
      var seedPos = 0
      var done = false
      while (!done && loads(p) < capacity && buffered > 0) {
        if (heap.nonEmpty) moveToCore(heap.popMin(), p)
        else {
          while (seedPos < seeds.length &&
                 (core.get(seeds(seedPos)) || adj(seeds(seedPos)).isEmpty))
            seedPos += 1
          if (seedPos >= seeds.length) done = true
          else moveToCore(seeds(seedPos), p)
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
