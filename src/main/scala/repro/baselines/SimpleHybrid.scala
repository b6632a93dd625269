package repro.baselines

import repro.core._

/** The "simple hybrid partitioning" baseline of Section 5.4: the same τ
  * split as HEP, but `G_REST` (edges with at least one low-degree endpoint)
  * is partitioned by baseline NE — full CSR of the sub-graph, eager
  * bookkeeping — and `G_H2H` by *random* streaming with no shared state.
  * HEP's wins over this baseline isolate the value of NE++ (runtime/memory)
  * and of informed HDRF streaming (quality).
  */
final class SimpleHybrid(val tau: Double) extends EdgePartitioner {

  override def name: String = s"SimpleHybrid-${Hep.tauLabel(tau)}"

  override protected def compute(g: GraphData, k: Int): PartitionResult = {
    val t0 = System.nanoTime()
    val isHigh = g.highDegree(tau)

    // split the edge list
    val restIds = new scala.collection.mutable.ArrayBuffer[Int]()
    val h2hIds = new scala.collection.mutable.ArrayBuffer[Int]()
    var e = 0
    while (e < g.nE) {
      if (isHigh(g.src(e)) && isHigh(g.dst(e))) h2hIds += e else restIds += e
      e += 1
    }

    val pids = Array.fill(g.nE)(-1)
    val loads = new Array[Long](k)

    // G_REST via baseline NE on the sub-graph (same vertex id space)
    if (restIds.nonEmpty) {
      val sub = new GraphData(g.nV,
        restIds.map(g.src(_)).toArray, restIds.map(g.dst(_)).toArray)
      val res = new NeBaseline().partition(sub, k)
      var i = 0
      while (i < restIds.length) {
        pids(restIds(i)) = res.pids(i)
        loads(res.pids(i)) += 1
        i += 1
      }
    }

    // G_H2H via random streaming, honouring the overall balance bound
    val capacity = Partitioners.capacity(g, k)
    h2hIds.foreach(RandomStreaming.place(_, pids, loads, capacity))

    val ms = (System.nanoTime() - t0) / 1000000L
    PartitionResult(k, pids, name, ms)
  }
}
