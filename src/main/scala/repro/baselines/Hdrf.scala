package repro.baselines

import repro.core._

/** Standalone HDRF (Petroni et al., CIKM'15): single-pass stateful streaming
  * over the full edge list with *partial* degrees — the degree counters are
  * incremented as edges arrive, which is exactly the cold-start ("uninformed
  * assignment") handicap HEP's informed streaming phase removes.
  *
  * Uses the author-recommended `λ = 1.1` ([[HdrfScoring.Lambda]]) and the
  * balancing constraint [[Partitioners.capacity]] as a hard candidate filter.
  */
final class Hdrf extends EdgePartitioner {

  override def name: String = "HDRF"

  override protected def compute(g: GraphData, k: Int): PartitionResult = {
    val t0 = System.nanoTime()
    val pids = Array.fill(g.nE)(-1)
    val loads = new Array[Long](k)
    val replicas = Array.fill(k)(new DenseBitset(g.nV))
    val partialDeg = new Array[Long](g.nV)
    val capacity = Partitioners.capacity(g, k)

    var e = 0
    while (e < g.nE) {
      val u = g.src(e); val v = g.dst(e)
      partialDeg(u) += 1; partialDeg(v) += 1
      var minLoad = Long.MaxValue; var maxLoad = Long.MinValue
      var p = 0
      while (p < k) {
        if (loads(p) < minLoad) minLoad = loads(p)
        if (loads(p) > maxLoad) maxLoad = loads(p)
        p += 1
      }
      var best = -1
      var bestScore = Double.NegativeInfinity
      p = 0
      while (p < k) {
        if (loads(p) < capacity) {
          val s = HdrfScoring.score(partialDeg(u), partialDeg(v),
            replicas(p).get(u), replicas(p).get(v),
            loads(p), minLoad, maxLoad)
          if (s > bestScore) { bestScore = s; best = p }
        }
        p += 1
      }
      if (best < 0) {
        var q = 0
        while (q < k) { if (best < 0 || loads(q) < loads(best)) best = q; q += 1 }
      }
      pids(e) = best
      loads(best) += 1
      replicas(best).set(u)
      replicas(best).set(v)
      e += 1
    }
    val ms = (System.nanoTime() - t0) / 1000000L
    PartitionResult(k, pids, name, ms)
  }
}
