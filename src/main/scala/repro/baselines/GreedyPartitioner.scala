package repro.baselines

import repro.core.{DenseBitset, EdgePartitioner, GraphData, PartitionResult, Partitioners}

/** PowerGraph's Greedy vertex-cut heuristic (Gonzalez et al., OSDI'12),
  * Table 1's `Θ(|E| * k)` stateful streaming row. Case analysis per edge
  * (u, v):
  *  1. some partition holds replicas of both → least-loaded such partition;
  *  2. exactly one endpoint has replicas → least-loaded of its partitions;
  *  3. neither has replicas → globally least-loaded partition.
  * (The published rule distinguishes a fourth case — both replicated but
  * disjointly — which also resolves to the union's least-loaded partition,
  * as implemented here.) Partitions at capacity ([[Partitioners.capacity]])
  * are skipped.
  */
final class GreedyPartitioner extends EdgePartitioner {

  override def name: String = "Greedy"

  override protected def compute(g: GraphData, k: Int): PartitionResult = {
    val pids = new Array[Int](g.nE)
    val loads = new Array[Long](k)
    val replicas = Array.fill(k)(new DenseBitset(g.nV))
    val capacity = Partitioners.capacity(g, k)

    var e = 0
    while (e < g.nE) {
      val u = g.src(e); val v = g.dst(e)
      var bestBoth = -1; var bestAny = -1; var bestFree = -1
      var p = 0
      while (p < k) {
        if (loads(p) < capacity) {
          val ru = replicas(p).get(u); val rv = replicas(p).get(v)
          if (ru && rv && (bestBoth < 0 || loads(p) < loads(bestBoth))) bestBoth = p
          if ((ru || rv) && (bestAny < 0 || loads(p) < loads(bestAny))) bestAny = p
          if (bestFree < 0 || loads(p) < loads(bestFree)) bestFree = p
        }
        p += 1
      }
      val target = if (bestBoth >= 0) bestBoth else if (bestAny >= 0) bestAny else bestFree
      pids(e) = target
      loads(target) += 1
      replicas(target).set(u)
      replicas(target).set(v)
      e += 1
    }
    PartitionResult(k, pids, name)
  }
}
