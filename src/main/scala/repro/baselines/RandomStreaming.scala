package repro.baselines

import repro.core.{EdgePartitioner, GraphData, PartitionResult, Partitioners}

/** Random streaming assignment (the streaming half of the "simple hybrid"
  * baseline of Section 5.4): each edge goes to a pseudo-random partition,
  * linear-probing past partitions at the balancing capacity
  * ([[Partitioners.capacity]]). Deterministic in [[RandomStreaming.Seed]].
  */
final class RandomStreaming extends EdgePartitioner {

  override def name: String = "Random"

  override protected def compute(g: GraphData, k: Int): PartitionResult = {
    val t0 = System.nanoTime()
    val pids = new Array[Int](g.nE)
    val loads = new Array[Long](k)
    val capacity = Partitioners.capacity(g, k)
    var e = 0
    while (e < g.nE) { RandomStreaming.place(e, pids, loads, capacity); e += 1 }
    val ms = (System.nanoTime() - t0) / 1000000L
    PartitionResult(k, pids, name, ms)
  }
}

object RandomStreaming {
  /** Seed of the pseudo-random partition choice. */
  final val Seed = 42

  /** Assign edge `eid` to the partition its seeded hash picks, probing
    * forward past partitions at `capacity`; if all `loads.length` of them
    * are full, the hashed one takes it anyway.
    */
  def place(eid: Int, pids: Array[Int], loads: Array[Long], capacity: Long): Unit = {
    val k = loads.length
    var p = Dbh.mix(eid ^ Seed) % k
    var probes = 0
    while (loads(p) >= capacity && probes < k) { p = (p + 1) % k; probes += 1 }
    pids(eid) = p
    loads(p) += 1
  }
}
