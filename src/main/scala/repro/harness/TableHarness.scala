package repro.harness

import org.apache.spark.sql.SparkSession

import repro.SynthGraphs
import repro.SynthGraphs.SynthGraph
import repro.baselines._
import repro.core._
import repro.graphx.GraphXRunner
import repro.paging.PagingSimulator
import repro.taumem.TauPrecompute

/** The one definition of every evaluation table (Tables 1–6): its set-up
  * (proxy graphs, k, grids, memory limits, GraphX workloads), how its
  * partitioners are timed, and its title, column header and cells.
  *
  * `tableN(spark, scale)` runs Table N as EXPERIMENTS.md reports it, on the
  * proxy graphs at `scale`. The spark-submit entry points in `jobs/` and the
  * suites in `bench/` only call it and print [[render]] of the result, so
  * both print the same table. Where a table takes its graphs as an argument,
  * tests run it on a miniature graph. The caller supplies the SparkSession.
  */
object TableHarness {

  /** k of Tables 2 and 4–6 (the paper's k = 32). */
  final val K = 32

  /** The Table 4 trio OK/IT/TW at `scale`: the graphs of Tables 2, 4 and 5. */
  private def evalGraphs(spark: SparkSession, scale: Double): Seq[SynthGraph] =
    Seq(SynthGraphs.okProxy(spark, scale), SynthGraphs.itProxy(spark, scale),
      SynthGraphs.twProxy(spark, scale))

  /** The partitioner line-up of Table 4 (paper Section 5.3). */
  def table4Partitioners(): Seq[EdgePartitioner] = Seq(
    new Hep(100), new Hep(10), new Hep(1),
    new NeBaseline(), new Sne(), new Hdrf(), new Dbh())

  /** Every partitioner implemented (Table 1's empirical check). */
  def allPartitioners(): Seq[EdgePartitioner] =
    table4Partitioners() ++ Seq(new GreedyPartitioner(), new GridPartitioner(),
      new RandomStreaming())

  /** Times `run` as Tables 1, 4 and 6 do: one untimed warm-up call (JIT,
    * caches), then three timed calls. Returns the last call's value and the
    * median of the three times `millis` reads off the values.
    */
  def warmMedian[A](run: => A)(millis: A => Long): (A, Long) = {
    run
    val runs = Seq.fill(3)(run)
    (runs.last, runs.map(millis).sorted.apply(1))
  }

  /** `algo.partition(g, k)`, checked by [[Partitioners.validate]]. */
  private def validated(algo: EdgePartitioner, g: GraphData, k: Int): PartitionResult = {
    val res = algo.partition(g, k)
    Partitioners.validate(g, res)
    res
  }

  /** A table as printed: title, notes, column header, the cells of each row. */
  sealed trait Table {
    def title: String
    def header: Seq[String]
    def cells: Seq[Seq[String]]
    def notes: Seq[String] = Nil
  }

  /** Title line, notes, then the aligned grid. */
  def render(t: Table): String =
    (s"=== ${t.title} ===" +: t.notes :+ render(t.header +: t.cells)).mkString("\n")

  /** Fixed-width text table; first row is the header. */
  def render(rows: Seq[Seq[String]]): String = {
    if (rows.isEmpty) return ""
    val widths = rows.head.indices.map(i => rows.map(_(i).length).max)
    rows.map(r => r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  "))
      .mkString("\n")
  }

  // -- Table 1: complexity scaling ------------------------------------------

  final case class T1Row(algo: String, k: Int, nE: Int, millis: Long)

  final case class Table1(rows: Seq[T1Row]) extends Table {
    def title = "Table 1: runtime (ms) vs k and |E|"
    def header = Seq("algo", "k", "|E|", "ms")
    def cells = rows.map(r => Seq(r.algo, r.k.toString, r.nE.toString, r.millis.toString))
  }

  /** Empirical runtime grid of every implemented partitioner on OK-proxy
    * over k (complexity-in-k shape) and over the whole graph and its first
    * half of edges (complexity-in-|E| shape), each cell timed by
    * [[warmMedian]].
    */
  def table1(spark: SparkSession, scale: Double): Table1 = {
    val sg = SynthGraphs.okProxy(spark, scale)
    val g = GraphData.fromDF(sg.df, sg.nV)
    val gHalf = new GraphData(g.nV, g.src.take(g.nE / 2), g.dst.take(g.nE / 2))
    Table1(for {
      algo <- allPartitioners()
      graph <- Seq(g, gHalf)
      k <- Seq(4, 32, 128, 256)
    } yield {
      val (res, ms) = warmMedian(validated(algo, graph, k))(_.buildMillis)
      T1Row(res.partitionerName, k, graph.nE, ms)
    })
  }

  // -- Table 2: τ pre-computation runtime -----------------------------------

  final case class T2Row(graph: String, millis: Long, footprints: Seq[TauPrecompute.TauFootprint])

  final case class Table2(graphs: Seq[SynthGraph], rows: Seq[T2Row]) extends Table {
    def title = "Table 2: tau->memory pre-computation runtime"
    def header = Seq("graph", "precompute_ms")
    def cells = rows.map(r => Seq(r.graph, r.millis.toString))
  }

  def table2(spark: SparkSession, scale: Double): Table2 =
    table2(spark, evalGraphs(spark, scale))

  /** One timed run of the footprint pre-computation for τ = 100 … 0.5 per
    * graph.
    */
  def table2(spark: SparkSession, graphs: Seq[SynthGraph]): Table2 =
    Table2(graphs, graphs.map { sg =>
      val t0 = System.nanoTime()
      val fps = TauPrecompute.footprints(spark, sg.df, sg.nV.toLong, K,
        taus = Seq(100, 10, 4, 2, 1, 0.5))
      T2Row(sg.name, (System.nanoTime() - t0) / 1000000L, fps)
    })

  // -- Table 3: dataset statistics ------------------------------------------

  /** `sizeBytes` is the binary edge list with 32-bit ids: 8 bytes per edge. */
  final case class T3Row(graph: String, nV: Int, nE: Long, sizeBytes: Long, kind: String)

  final case class Table3(graphs: Seq[SynthGraph], rows: Seq[T3Row]) extends Table {
    def title = "Table 3: synthetic proxy datasets"
    def header = Seq("name", "|V|", "|E|", "size_bytes", "type")
    def cells = rows.map(r =>
      Seq(r.graph, r.nV.toString, r.nE.toString, r.sizeBytes.toString, r.kind))
  }

  /** Every proxy: LJ, OK, WI, IT, TW. */
  def table3(spark: SparkSession, scale: Double): Table3 =
    table3(Seq(SynthGraphs.ljProxy _, SynthGraphs.okProxy _, SynthGraphs.wiProxy _,
      SynthGraphs.itProxy _, SynthGraphs.twProxy _).map(_(spark, scale)))

  def table3(graphs: Seq[SynthGraph]): Table3 =
    Table3(graphs, graphs.map { sg =>
      val e = sg.edgeCount
      T3Row(sg.name, sg.nV, e, e * 8L, sg.kind)
    })

  // -- Table 4: partitioning + distributed processing -----------------------

  final case class T4Row(graph: String, algo: String, partMs: Long, rf: Double,
                         alpha: Double, prMs: Long, bfsMs: Long, ccMs: Long)

  final case class Table4(graphs: Seq[SynthGraph], k: Int, rows: Seq[T4Row]) extends Table {
    def title = s"Table 4: partitioning + GraphX processing, k=$k"
    def header = Seq("graph", "algo", "part_ms", "rf", "alpha", "pagerank_ms", "bfs_ms", "cc_ms")
    def cells = rows.map(r => Seq(r.graph, r.algo, r.partMs.toString, f"${r.rf}%.2f",
      f"${r.alpha}%.2f", r.prMs.toString, r.bfsMs.toString, r.ccMs.toString))
  }

  /** PageRank runs 5 iterations (paper: 100) and BFS 3 seeds (paper: 10). */
  def table4(spark: SparkSession, scale: Double): Table4 =
    table4(spark, evalGraphs(spark, scale), K, prIters = 5, nSeeds = 3, table4Partitioners())

  /** Partition time by [[warmMedian]]; RF, α and the GraphX workloads on the
    * last timed run's assignment.
    */
  def table4(spark: SparkSession, graphs: Seq[SynthGraph], k: Int, prIters: Int,
             nSeeds: Int, partitioners: Seq[EdgePartitioner]): Table4 =
    Table4(graphs, k, graphs.flatMap { sg =>
      val g = GraphData.fromDF(sg.df, sg.nV)
      partitioners.map { algo =>
        val (res, partMs) = warmMedian(validated(algo, g, k))(_.buildMillis)
        val times = GraphXRunner.run(spark, g, res, prIters,
          GraphXRunner.defaultSeeds(g.nV, nSeeds))
        T4Row(sg.name, res.partitionerName, partMs, Partitioners.replicationFactor(g, res),
          Partitioners.alpha(res), times.pageRankMs, times.bfsMs, times.ccMs)
      }
    })

  // -- Table 5: vertex balancing --------------------------------------------

  final case class T5Row(graph: String, algo: String, stdOverAvg: Double)

  final case class Table5(graphs: Seq[SynthGraph], rows: Seq[T5Row]) extends Table {
    def title = s"Table 5: HEP vertex balancing (std/avg), k=$K"
    def header = Seq("graph", "algo", "std/avg")
    def cells = rows.map(r => Seq(r.graph, r.algo, f"${r.stdOverAvg}%.3f"))
  }

  def table5(spark: SparkSession, scale: Double): Table5 =
    table5(spark, evalGraphs(spark, scale))

  /** HEP-100, HEP-10 and HEP-1 on each graph. */
  def table5(spark: SparkSession, graphs: Seq[SynthGraph]): Table5 =
    Table5(graphs, graphs.flatMap { sg =>
      val g = GraphData.fromDF(sg.df, sg.nV)
      Seq(100.0, 10, 1).map { tau =>
        val res = validated(new Hep(tau), g, K)
        val assign = Metrics.assignmentDF(spark, g, res)
        T5Row(sg.name, res.partitionerName, Metrics.vertexBalance(assign, K))
      }
    })

  // -- Table 6: paging under memory limits ----------------------------------

  final case class T6Row(memLimitBytes: Long, faults: Long, accesses: Long, modelledMs: Long)

  /** `csrBytes`: §4.2 footprint of `g`'s CSR; `baseMs`: untraced run time. */
  final case class Table6(graph: String, g: GraphData, csrBytes: Long, baseMs: Long,
                          rows: Seq[T6Row]) extends Table {
    def title = s"Table 6: simulated paging of NE++ on $graph, k=$K"
    def header = Seq("mem_limit_bytes", "hard_faults", "accesses", "modelled_ms")
    def cells = rows.map(r => Seq(r.memLimitBytes.toString, r.faults.toString,
      r.accesses.toString, r.modelledMs.toString))
    override def notes = Seq(s"$graph CSR footprint at tau=100: $csrBytes bytes; " +
      s"unconstrained HEP-100 runtime (CSR build included): $baseMs ms")
  }

  /** HEP-100 on OK-proxy with the column array behind a simulated LRU-paged
    * resident set, under limits from 1.2× the CSR's §4.2 footprint (fits
    * comfortably) down to 0.15× (almost nothing resident); the τ-independent
    * part of the footprint is always resident. The untraced baseline and the
    * traced run of each limit, with a fresh simulator per call, are timed by
    * [[warmMedian]]; fault and access counts are deterministic. Times are
    * those of the whole `Hep.partitionDetailed` call, CSR build included.
    */
  def table6(spark: SparkSession, scale: Double): Table6 = {
    val sg = SynthGraphs.okProxy(spark, scale)
    val g = GraphData.fromDF(sg.df, sg.nV)
    val hep = new Hep(100)
    val (base, baseMs) = warmMedian(hep.partitionDetailed(g, K))(_.result.buildMillis)
    val csrBytes = base.csr.memoryFootprintBytes(K)
    val fixedBytes = PrunedCsr.fixedFootprintBytes(g.nV, K)
    val rows = Seq(1.2, 0.8, 0.6, 0.4, 0.25, 0.15).map { f =>
      val limit = (csrBytes * f).toLong
      val pages = PagingSimulator.residentPagesFor(limit, fixedBytes)
      val ((_, sim), ms) = warmMedian {
        val sim = new PagingSimulator(pages)
        (hep.partitionDetailed(g, K, sim), sim)
      }(_._1.result.buildMillis)
      T6Row(limit, sim.faults, sim.accesses, PagingSimulator.modelledRuntimeMs(ms, sim.faults))
    }
    Table6(sg.name, g, csrBytes, baseMs, rows)
  }
}
