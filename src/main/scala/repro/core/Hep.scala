package repro.core

/** Hybrid Edge Partitioner (the paper's primary contribution).
  *
  * Pipeline (Section 3): build the pruned CSR for threshold `tau` (leaving
  * `E_h2h` out), run NE++ over the in-memory edges, then stream the h2h
  * edges from the input edge list with HDRF scoring seeded by the NE++ state.
  * The result carries the CSR's Section 4.2 memory model. The CSR build's
  * fill pass and NE++'s clean-up rounds run on the fork/join pool when large
  * enough; the result does not depend on the pool or its size (DESIGN.md §2).
  *
  * `HEP-x` in the paper means `tau = x`; [[name]] follows that convention.
  *
  * @param tau    degree threshold factor: `d(v) > tau * meanDegree` ⇒ high
  * @param tracer when non-null, attached to each run's CSR after the build,
  *               so it sees every column access of the partitioning phases
  *               (Table 6)
  */
final class Hep(val tau: Double, tracer: AccessTracer = null) extends EdgePartitioner {

  override def name: String = s"HEP-${Hep.tauLabel(tau)}"

  override protected def compute(g: GraphData, k: Int): PartitionResult = {
    val csr = PrunedCsr.build(g, Some(tau))
    csr.tracer = tracer
    val pids = Array.fill(g.nE)(-1)
    val loads = new Array[Long](k)
    val replicas = Array.fill(k)(new DenseBitset(g.nV))
    new NePlusPlus(csr, k, pids, loads, replicas, EdgeRemoval.Lazy).run()
    new InformedStreaming(g, k, pids, loads, replicas).run(csr)
    PartitionResult(k, pids, name, memoryModelBytes = Some(csr.memoryFootprintBytes(k)))
  }
}

object Hep {
  /** τ as a name suffix: `100`, `0.5`; from 10⁶ on, the `Double` form. */
  def tauLabel(tau: Double): String =
    if (tau == tau.floor && tau < 1e6) tau.toLong.toString else tau.toString
}
