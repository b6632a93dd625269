package repro.core

/** Hybrid Edge Partitioner (the paper's primary contribution).
  *
  * Pipeline (Section 3): build the pruned CSR for threshold `tau` (leaving
  * `E_h2h` out), run NE++ over the in-memory edges, then stream the h2h
  * edges from the input edge list with HDRF scoring seeded by the NE++ state.
  *
  * `HEP-x` in the paper means `tau = x`; [[name]] follows that convention.
  *
  * @param tau degree threshold factor: `d(v) > tau * meanDegree` ⇒ high
  */
final class Hep(val tau: Double) extends EdgePartitioner {

  override def name: String = s"HEP-${Hep.tauLabel(tau)}"

  override protected def compute(g: GraphData, k: Int): PartitionResult =
    partitionDetailed(g, k).result

  /** Full run, additionally exposing the CSR (pruning stats, memory model)
    * and the per-partition replica bitsets for tests and benches. A non-null
    * `tracer` is attached to the CSR after the build, so it sees every
    * column access of the partitioning phases (Table 6).
    */
  def partitionDetailed(g: GraphData, k: Int, tracer: AccessTracer = null): Hep.Detailed = {
    val t0 = System.nanoTime()
    val csr = PrunedCsr.build(g, Some(tau))
    csr.tracer = tracer
    val pids = Array.fill(g.nE)(-1)
    val loads = new Array[Long](k)
    val replicas = Array.fill(k)(new DenseBitset(g.nV))
    new NePlusPlus(csr, k, pids, loads, replicas, EdgeRemoval.Lazy).run()
    new InformedStreaming(g, k, pids, loads, replicas).run(csr)
    val ms = (System.nanoTime() - t0) / 1000000L
    Hep.Detailed(
      PartitionResult(k, pids, name, ms, Some(csr.memoryFootprintBytes(k))),
      csr, replicas)
  }
}

object Hep {
  /** τ as a name suffix: `100`, `0.5`; from 10⁶ on, the `Double` form. */
  def tauLabel(tau: Double): String =
    if (tau == tau.floor && tau < 1e6) tau.toLong.toString else tau.toString

  /** Result bundle of [[Hep.partitionDetailed]]. */
  final case class Detailed(
      result: PartitionResult,
      csr: PrunedCsr,
      replicas: Array[DenseBitset],
  )
}
