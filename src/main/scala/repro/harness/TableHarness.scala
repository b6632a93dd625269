package repro.harness

import org.apache.spark.sql.SparkSession

import repro.SynthGraphs.SynthGraph
import repro.baselines._
import repro.core._
import repro.graphx.GraphXRunner
import repro.paging.PagingSimulator
import repro.taumem.TauPrecompute

/** Produces the rows of every evaluation table (Tables 1–6). Shared between
  * the spark-submit entry points in `jobs/` and the benchmark suites in
  * `bench/` so both print identical numbers. All helpers are pure of global
  * state: the caller supplies the SparkSession and the graphs.
  */
object TableHarness {

  /** The partitioner line-up of Table 4 (paper Section 5.3). */
  def table4Partitioners(): Seq[EdgePartitioner] = Seq(
    new Hep(100), new Hep(10), new Hep(1),
    new NeBaseline(), new Sne(), new Hdrf(), new Dbh())

  /** Every partitioner implemented (Table 1's empirical check). */
  def allPartitioners(): Seq[EdgePartitioner] =
    table4Partitioners() ++ Seq(new GreedyPartitioner(), new GridPartitioner(),
      new RandomStreaming())

  // -- Table 1: complexity scaling ------------------------------------------

  final case class T1Row(algo: String, k: Int, nE: Int, millis: Long)

  /** Empirical runtime grid over k (complexity-in-k shape) and |E|
    * (complexity-in-|E| shape) for every implemented partitioner. Each cell
    * is the median of 3 timed runs after one warm-up run (JIT + caches).
    */
  def table1(g: GraphData, ks: Seq[Int], halfEdges: Boolean = true): Seq[T1Row] = {
    val gHalf = new GraphData(g.nV, g.src.take(g.nE / 2), g.dst.take(g.nE / 2))
    for {
      algo <- allPartitioners()
      (graph, tag) <- Seq((g, g.nE)) ++ (if (halfEdges) Seq((gHalf, gHalf.nE)) else Nil)
      k <- ks
    } yield {
      algo.partition(graph, k) // warm-up run
      val timed = Seq.fill(3)(algo.partition(graph, k))
      timed.foreach(Partitioners.validate(graph, _))
      T1Row(timed.head.partitionerName, k, tag, timed.map(_.buildMillis).sorted.apply(1))
    }
  }

  // -- Table 2: τ pre-computation runtime -----------------------------------

  final case class T2Row(graph: String, millis: Long,
                         footprints: Seq[TauPrecompute.TauFootprint])

  def table2(spark: SparkSession, graphs: Seq[SynthGraph], k: Int,
             taus: Seq[Double] = Seq(100, 10, 4, 2, 1, 0.5)): Seq[T2Row] =
    graphs.map { sg =>
      val t0 = System.nanoTime()
      val fps = TauPrecompute.footprints(spark, sg.df, sg.nV.toLong, k, taus)
      val ms = (System.nanoTime() - t0) / 1000000L
      T2Row(sg.name, ms, fps)
    }

  // -- Table 3: dataset statistics ------------------------------------------

  final case class T3Row(graph: String, nV: Int, nE: Long, sizeBytes: Long, kind: String)

  def table3(graphs: Seq[SynthGraph]): Seq[T3Row] =
    graphs.map { sg =>
      val e = sg.edgeCount
      T3Row(sg.name, sg.nV, e, e * 8L, sg.kind)
    }

  // -- Table 4: partitioning + distributed processing -----------------------

  final case class T4Row(graph: String, algo: String, partMs: Long, rf: Double,
                         alpha: Double, prMs: Long, bfsMs: Long, ccMs: Long)

  def table4(spark: SparkSession, graphs: Seq[SynthGraph], k: Int,
             prIters: Int, nSeeds: Int,
             partitioners: Seq[EdgePartitioner] = table4Partitioners()): Seq[T4Row] =
    graphs.flatMap { sg =>
      val g = GraphData.fromDF(sg.df, sg.nV)
      partitioners.map { algo =>
        algo.partition(g, k) // warm-up run, as in the paper (JIT + caches)
        val res = algo.partition(g, k)
        Partitioners.validate(g, res)
        val rf = Partitioners.replicationFactor(g, res)
        val times = GraphXRunner.run(spark, g, res, prIters,
          GraphXRunner.defaultSeeds(g.nV, nSeeds))
        T4Row(sg.name, res.partitionerName, res.buildMillis, rf,
          Partitioners.alpha(res), times.pageRankMs, times.bfsMs, times.ccMs)
      }
    }

  // -- Table 5: vertex balancing --------------------------------------------

  final case class T5Row(graph: String, algo: String, stdOverAvg: Double)

  def table5(spark: SparkSession, graphs: Seq[SynthGraph], k: Int,
             taus: Seq[Double] = Seq(100, 10, 1)): Seq[T5Row] =
    graphs.flatMap { sg =>
      val g = GraphData.fromDF(sg.df, sg.nV)
      taus.map { tau =>
        val res = new Hep(tau).partition(g, k)
        Partitioners.validate(g, res)
        val assign = Metrics.assignmentDF(spark, g, res)
        T5Row(sg.name, res.partitionerName, Metrics.vertexBalance(assign, k))
      }
    }

  // -- Table 6: paging under memory limits ----------------------------------

  final case class T6Row(memLimitBytes: Long, faults: Long, accesses: Long,
                         modelledMs: Long)

  /** Run HEP (τ = `tau`) with the column array behind a simulated
    * LRU-paged resident set, one run per memory limit. Also returns the
    * unconstrained runtime (an untraced run). Times are those of the whole
    * `Hep.partitionDetailed` call, CSR build included.
    */
  def table6(sg: SynthGraph, k: Int, tau: Double,
             memLimits: Seq[Long]): (Seq[T6Row], Long) = {
    val g = GraphData.fromDF(sg.df, sg.nV)
    val hep = new Hep(tau)
    val baseline = hep.partitionDetailed(g, k)
    val fixedBytes = baseline.csr.memoryFootprintBytes(k) - baseline.csr.colLength.toLong * 4L
    val rows = memLimits.map { limit =>
      val sim = new PagingSimulator(PagingSimulator.residentPagesFor(limit, fixedBytes))
      val measured = hep.partitionDetailed(g, k, sim).result.buildMillis
      T6Row(limit, sim.faults, sim.accesses,
        PagingSimulator.modelledRuntimeMs(measured, sim.faults))
    }
    (rows, baseline.result.buildMillis)
  }

  // -- formatting ------------------------------------------------------------

  /** Fixed-width text table; first row is the header. */
  def render(rows: Seq[Seq[String]]): String = {
    if (rows.isEmpty) return ""
    val widths = rows.head.indices.map(i => rows.map(_(i).length).max)
    rows.map(r => r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  "))
      .mkString("\n")
  }
}
