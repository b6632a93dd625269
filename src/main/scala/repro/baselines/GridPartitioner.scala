package repro.baselines

import repro.core.{EdgePartitioner, GraphData, PartitionResult}

/** Grid / GraphBuilder constrained hashing (Jain et al., GRADES'13),
  * Table 1's `Θ(|E|)` stateless streaming row. Partitions form an `r × c`
  * grid (`r * c = k`, `r` the largest divisor ≤ √k); each vertex hashes to a
  * (row, column) cell, an edge's candidates are the two crossing cells
  * `(row(u), col(v))` and `(row(v), col(u))`, and the less-loaded candidate
  * wins. With a degenerate factorisation (prime k ⇒ 1 × k) this reduces to
  * plain hashing, matching the reference behaviour.
  */
final class GridPartitioner extends EdgePartitioner {

  override def name: String = "Grid"

  override protected def compute(g: GraphData, k: Int): PartitionResult = {
    val t0 = System.nanoTime()
    val r = GridPartitioner.rows(k)
    val c = k / r
    val pids = new Array[Int](g.nE)
    val loads = new Array[Long](k)
    var e = 0
    while (e < g.nE) {
      val u = g.src(e); val v = g.dst(e)
      val p1 = (Dbh.mix(u) % r) * c + (Dbh.mix(v) % c)
      val p2 = (Dbh.mix(v) % r) * c + (Dbh.mix(u) % c)
      val p = if (loads(p1) <= loads(p2)) p1 else p2
      pids(e) = p
      loads(p) += 1
      e += 1
    }
    val ms = (System.nanoTime() - t0) / 1000000L
    PartitionResult(k, pids, name, ms)
  }
}

object GridPartitioner {
  /** Largest divisor of k that is ≤ √k. */
  def rows(k: Int): Int = {
    require(k >= 1, s"k must be >= 1, got $k")
    var r = math.sqrt(k.toDouble).toInt
    while (r > 1 && k % r != 0) r -= 1
    math.max(r, 1)
  }
}
