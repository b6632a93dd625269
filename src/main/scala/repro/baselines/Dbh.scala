package repro.baselines

import repro.core.{EdgePartitioner, GraphData, PartitionResult}

/** Degree-Based Hashing (Xie et al., NIPS'14): stateless streaming — each
  * edge is placed by hashing its *lower-degree* endpoint, so high-degree
  * (hub) vertices absorb the replication. Θ(|E|) time, no state beyond the
  * degree array (paper Table 1).
  */
final class Dbh extends EdgePartitioner {

  override def name: String = "DBH"

  override protected def compute(g: GraphData, k: Int): PartitionResult = {
    val deg = g.degrees
    val pids = new Array[Int](g.nE)
    var e = 0
    while (e < g.nE) {
      val u = g.src(e); val v = g.dst(e)
      val key = if (deg(u) <= deg(v)) u else v
      pids(e) = Dbh.mix(key) % k
      e += 1
    }
    PartitionResult(k, pids, name)
  }
}

object Dbh {
  /** Murmur3-style finaliser: spreads consecutive ids uniformly. */
  def mix(x0: Int): Int = {
    var x = x0 * 0x9e3779b1
    x ^= x >>> 16; x *= 0x85ebca6b
    x ^= x >>> 13; x *= 0xc2b2ae35
    x ^= x >>> 16
    x & 0x7fffffff
  }
}
