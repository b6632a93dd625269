package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.graphx.Graph
import org.apache.spark.sql.SparkSession

import repro.SynthGraphs
import repro.core._
import repro.graphx.GraphXRunner

/** The HEP pipeline benchmark: edge list in → `Hep.partition` → GraphX
  * PageRank, on one workload per process.
  *
  * {{{
  * PipelineBench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
  * }}}
  *
  * With `--trace 0` it times `Hep.partition` for `--seconds` and reports the
  * end-to-end metrics. With `--trace 1` it runs the whole pipeline, GraphX
  * included, records spans around every layer call and reports per-layer
  * metrics. It
  * prints one `name value unit` line per metric and, as its last line, a JSON
  * object `{"correct", "attempted", "failed", "metrics"}`. Every check it
  * makes on the program's outputs counts as one attempted operation.
  */
object PipelineBench {

  /** Untimed `Hep.partition` calls before timing starts (JIT, caches). */
  val WarmupCalls = 5
  /** Share of the traced run's `--seconds` spent on partitioning; the rest
    * times PageRank.
    */
  val TracedPartitionShare = 0.5
  /** Eleven samples leave ten beyond the tail percentile. */
  val MinPartitionSamples = 11
  val MinPageRankCalls = 3
  val PageRankIters = 1

  final case class Options(workload: Workload, seed: Long, seconds: Int, trace: Boolean, workDir: Path)

  /** A reported metric; `value` is a Long for counts and a Double otherwise. */
  final case class Metric(name: String, value: Any, unit: String)

  def main(args: Array[String]): Unit = {
    val opt = parse(args)
    val bench = new PipelineBench(opt)
    val metrics = try bench.run() finally bench.close()
    metrics.foreach(m => println(f"${m.name}%-28s ${m.value}%s ${m.unit}"))
    println(json(bench.ops, metrics))
  }

  private def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def arg(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workloads.byName(arg("workload"))
    Options(wl,
      seed = kv.get("seed").map(_.toLong).getOrElse(wl.graph.defaultSeed),
      seconds = arg("seconds").toInt,
      trace = arg("trace") == "1",
      workDir = Paths.get(arg("work-dir")).toAbsolutePath)
  }

  private def json(ops: Ops, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
    s"""{"correct": ${ops.failed == 0}, "attempted": ${ops.attempted}, "failed": ${ops.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }

  // -- statistics -----------------------------------------------------------

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it, as
    * (value, percentile).
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    val i = s.length - 11
    require(i >= 0, s"a tail needs at least 11 samples, got ${s.length}")
    (s(i), 100.0 * (i + 1) / s.length)
  }
}

/** Attempted and failed operations of one run. */
final class Ops {
  var attempted = 0L
  var failed = 0L

  /** One checked operation; an exception counts as a failure. */
  def check(what: String)(ok: => Boolean): Unit = {
    attempted += 1
    val passed =
      try ok
      catch { case NonFatal(e) => Console.err.println(s"check '$what' threw: $e"); false }
    if (!passed) {
      failed += 1
      Console.err.println(s"check failed: $what")
    }
  }
}

/** Counts column-array accesses (the public `PrunedCsr.tracer` hook). */
final class CountingTracer extends AccessTracer {
  var accesses = 0L
  override def onAccess(entryIndex: Int): Unit = accesses += 1
}

final class PipelineBench(opt: PipelineBench.Options) {
  import PipelineBench._

  private val wl = opt.workload
  private val trace = new Trace(opt.trace, s"${wl.name}/seed=${opt.seed}/${System.currentTimeMillis()}")
  private val untraced = new Trace(false, "")
  private val hep = new Hep(wl.tau)
  private val budgetNs = opt.seconds * 1000000000L
  val ops = new Ops
  private var spark: SparkSession = _

  private final case class Composed(result: PartitionResult, csr: PrunedCsr, nepp: NePlusPlus, csrAllocBytes: Long)
  private final case class PageRankCall(seconds: Double, shuffle: ShuffleCounter.Totals)

  def run(): Seq[Metric] = {
    val (setupS, g) = trace.span("setup")(setUp())
    if (opt.seed == wl.graph.defaultSeed) {
      ops.check(s"seed ${opt.seed} reproduces ${wl.graph.proxyName}") {
        val p = wl.graph.proxy(spark)
        sameEdges(GraphData.fromDF(p.df, p.nV), g)
      }
    }
    val reference = warmUp(g)
    if (opt.trace) perLayer(g, reference)
    else endToEnd(g, reference, setupS)
  }

  def close(): Unit = if (spark != null) spark.stop()

  // -- set-up -----------------------------------------------------------------

  /** Spark start + graph generation + `GraphData.fromDF`, in seconds, and the
    * graph. `g.degrees` is lazy and forced here so no timed call pays for it.
    */
  private def setUp(): (Double, GraphData) = {
    val t0 = System.nanoTime()
    spark = trace.span("ingest.session")(newSession())
    val (df, nV) = trace.span("ingest.generate") {
      val df = wl.graph.generate(spark, opt.seed).cache()
      (df, SynthGraphs.vertexCount(df))
    }
    val g = trace.span("ingest.collect") {
      val g = GraphData.fromDF(df, nV)
      g.degrees
      g
    }
    ((System.nanoTime() - t0) / 1e9, g)
  }

  private def newSession(): SparkSession = SparkSession.builder
    .master(s"local[${math.min(4, Runtime.getRuntime.availableProcessors())}]")
    .appName(s"perfbench ${wl.name}")
    // The generators' output depends on the number of input partitions;
    // fixing it keeps a seed's edge list the same on any core count.
    .config("spark.default.parallelism", 4)
    .config("spark.sql.shuffle.partitions", 8)
    .config("spark.ui.enabled", false)
    .config("spark.local.dir", opt.workDir.resolve("spark-local").toString)
    .config("spark.sql.warehouse.dir", opt.workDir.resolve("spark-warehouse").toString)
    .getOrCreate()

  private def sameEdges(a: GraphData, b: GraphData): Boolean =
    a.nV == b.nV && java.util.Arrays.equals(a.src, b.src) && java.util.Arrays.equals(a.dst, b.dst)

  // -- partitioning -------------------------------------------------------------

  /** Untimed calls; the first result is the reference every later call must
    * reproduce bit for bit.
    */
  private def warmUp(g: GraphData): PartitionResult = {
    val reference = hep.partition(g, wl.k)
    checkPartition(g, reference, reference)
    (1 until WarmupCalls).foreach(_ => checkPartition(g, hep.partition(g, wl.k), reference))
    reference
  }

  private def checkPartition(g: GraphData, res: PartitionResult, reference: PartitionResult): Unit =
    ops.check(s"${hep.name} output is valid and repeats the reference") {
      Partitioners.validate(g, res)
      java.util.Arrays.equals(res.pids, reference.pids)
    }

  private def allocatedBytes(): Long =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
      .getCurrentThreadAllocatedBytes

  /** `PrunedCsr.build` → `NePlusPlus.run` → `InformedStreaming.run`, the
    * steps of `Hep.partition`, each call inside a span of `spans`.
    */
  private def compose(g: GraphData, spans: Trace, tracer: AccessTracer): Composed =
    spans.span("hep.partition") {
      val a0 = allocatedBytes()
      val csr = spans.span("csr.build")(PrunedCsr.build(g, Some(wl.tau)))
      val csrAlloc = allocatedBytes() - a0
      csr.tracer = tracer
      val pids = Array.fill(g.nE)(-1)
      val loads = new Array[Long](wl.k)
      val replicas = Array.fill(wl.k)(new DenseBitset(g.nV))
      val nepp = new NePlusPlus(csr, wl.k, pids, loads, replicas, EdgeRemoval.Lazy)
      spans.span("nepp.run")(nepp.run())
      spans.span("stream.run")(new InformedStreaming(g, wl.k, pids, loads, replicas).run(csr.h2hEdgeIds))
      Composed(PartitionResult(wl.k, pids, hep.name, 0L, Some(csr.memoryFootprintBytes(wl.k))),
        csr, nepp, csrAlloc)
    }

  /** Distinct vertices covered by each partition. */
  private def vertexCounts(g: GraphData, res: PartitionResult): Array[Long] = {
    val seen = Array.fill(res.k)(new DenseBitset(g.nV))
    var e = 0
    while (e < g.nE) {
      seen(res.pids(e)).set(g.src(e))
      seen(res.pids(e)).set(g.dst(e))
      e += 1
    }
    seen.map(_.cardinality.toLong)
  }

  /** Table 5's std/avg over per-partition vertex counts, as `Metrics` defines it. */
  private def vertexBalance(counts: Array[Long]): Double = {
    val c = counts.map(_.toDouble)
    val avg = c.sum / c.length
    if (avg == 0.0) 0.0 else math.sqrt(c.map(x => (x - avg) * (x - avg)).sum / c.length) / avg
  }

  // -- GraphX -------------------------------------------------------------------

  /** Build the partitioned graph, check one PageRank (also the warm-up), then
    * time PageRank calls until `deadlineNs`.
    */
  private def pageRank(g: GraphData, res: PartitionResult, deadlineNs: Long,
                       counter: ShuffleCounter): (Double, Seq[PageRankCall]) = {
    val t0 = System.nanoTime()
    val graph = trace.span("graphx.build")(GraphXRunner.buildGraph(spark, g, res))
    val buildS = (System.nanoTime() - t0) / 1e9
    try {
      ops.check("PageRank gives every vertex a finite rank")(finiteRanks(graph, g.nV))
      val sc = spark.sparkContext
      val calls = ArrayBuffer.empty[PageRankCall]
      while (calls.length < MinPageRankCalls || System.nanoTime() < deadlineNs) {
        val group = s"pagerank-${calls.length}"
        System.gc() // each call starts from a collected heap, so GC pauses do not add noise
        sc.setJobGroup(group, "timed PageRank", interruptOnCancel = false)
        val t = System.nanoTime()
        try trace.span("graphx.pagerank")(GraphXRunner.timePageRank(graph, PageRankIters))
        finally sc.clearJobGroup()
        val seconds = (System.nanoTime() - t) / 1e9
        calls += PageRankCall(seconds, counter.await(sc, group))
      }
      (buildS, calls.toSeq)
    } finally graph.unpersist(blocking = false)
  }

  private def finiteRanks(graph: Graph[Int, Int], nV: Int): Boolean = {
    val ranks = graph.staticPageRank(PageRankIters).vertices.values.collect()
    ranks.length == nV && ranks.forall(r => !r.isNaN && !r.isInfinite)
  }

  // -- end-to-end run -------------------------------------------------------------

  private def endToEnd(g: GraphData, reference: PartitionResult, setupS: Double): Seq[Metric] = {
    val end = System.nanoTime() + budgetNs
    val times = ArrayBuffer.empty[Double]
    val allocs = ArrayBuffer.empty[Double]
    while (times.length < MinPartitionSamples || System.nanoTime() < end) {
      val a0 = allocatedBytes()
      val t0 = System.nanoTime()
      val res = hep.partition(g, wl.k)
      val t1 = System.nanoTime()
      allocs += (allocatedBytes() - a0).toDouble
      times += (t1 - t0) / 1e6
      checkPartition(g, res, reference)
    }
    val (tailMs, tailPct) = tail(times.toSeq)
    Console.out.println(f"partition_ms_tail is p$tailPct%.1f of ${times.length} samples")
    Seq(
      Metric("partition_ms", median(times.toSeq), "ms"),
      Metric("partition_ms_tail", tailMs, "ms"),
      Metric("replication_factor", Partitioners.replicationFactor(g, reference), "ratio"),
      Metric("edge_balance", Partitioners.alpha(reference), "ratio"),
      Metric("vertex_balance", vertexBalance(vertexCounts(g, reference)), "ratio"),
      Metric("model_bytes", reference.memoryModelBytes.get, "B"),
      Metric("alloc_bytes", median(allocs.toSeq), "B"),
      Metric("setup_s", setupS, "s"),
      Metric("op_success_rate", 1.0 - ops.failed.toDouble / ops.attempted, "ratio"),
    )
  }

  // -- traced run -------------------------------------------------------------------

  private def perLayer(g: GraphData, reference: PartitionResult): Seq[Metric] = {
    // Traced compositions alternate with untraced Hep.partition calls, so the
    // tracing overhead is measured under the same conditions.
    val start = System.nanoTime()
    val plainMs = ArrayBuffer.empty[Double]
    val partitionEnd = start + (budgetNs * TracedPartitionShare).toLong
    while (plainMs.length < MinPartitionSamples || System.nanoTime() < partitionEnd) {
      val t0 = System.nanoTime()
      val res = hep.partition(g, wl.k)
      plainMs += (System.nanoTime() - t0) / 1e6
      checkPartition(g, res, reference)
      val c = compose(g, trace, tracer = null)
      ops.check("composed layers reproduce Hep.partition bit for bit") {
        java.util.Arrays.equals(c.result.pids, reference.pids)
      }
    }

    // One more, untimed composition with a counting tracer gives the counts.
    val counter = new CountingTracer
    val counted = compose(g, untraced, counter)
    val csr = counted.csr
    val validEntries = (0 until g.nV).iterator.map(v => csr.validDegree(v).toLong).sum

    val shuffle = new ShuffleCounter
    spark.sparkContext.addSparkListener(shuffle)
    val (buildS, calls) = pageRank(g, reference, start + budgetNs, shuffle)
    spark.sparkContext.removeSparkListener(shuffle)

    ops.check("driver-side RF and vertex balance match Metrics") {
      val assign = Metrics.assignmentDF(spark, g, reference).cache()
      try {
        Metrics.replicationFactor(assign, g.nV) == Partitioners.replicationFactor(g, reference) &&
          Metrics.vertexBalance(assign, wl.k) == vertexBalance(vertexCounts(g, reference))
      } finally assign.unpersist(blocking = false)
    }

    val traceFile = opt.workDir.resolve("traces").resolve(s"${wl.name}-seed${opt.seed}.jsonl")
    trace.write(traceFile)
    Console.out.println(s"spans written to $traceFile")

    def selfMs(name: String) = median(trace.selfTimesNs(name).map(_ / 1e6))
    def selfS(name: String) = median(trace.selfTimesNs(name).map(_ / 1e9))
    val hepMs = median(trace.durationsNs("hep.partition").map(_ / 1e6))
    val csrMs = selfMs("csr.build")
    val neppMs = selfMs("nepp.run")
    val streamMs = selfMs("stream.run")
    val h2h = csr.h2hEdgeIds.length.toLong
    val shuffleTotals = calls.map(_.shuffle)
    def shuffleMedian(f: ShuffleCounter.Totals => Long): Long =
      median(shuffleTotals.map(t => f(t).toDouble)).toLong
    Seq(
      Metric("ingest.session_s", selfS("ingest.session"), "s"),
      Metric("ingest.generate_s", selfS("ingest.generate"), "s"),
      Metric("ingest.collect_s", selfS("ingest.collect"), "s"),
      Metric("csr.build_ms", csrMs, "ms"),
      Metric("csr.share", 100.0 * csrMs / hepMs, "%"),
      Metric("csr.alloc_bytes", counted.csrAllocBytes, "B"),
      Metric("csr.model_bytes", csr.memoryFootprintBytes(wl.k) - (g.nV.toLong * (wl.k + 1) + 7) / 8, "B"),
      Metric("csr.col_entries", csr.colLength.toLong, "count"),
      Metric("csr.h2h_edges", h2h, "count"),
      Metric("csr.high_vertices", csr.highCount.toLong, "count"),
      Metric("nepp.run_ms", neppMs, "ms"),
      Metric("nepp.share", 100.0 * neppMs / hepMs, "%"),
      Metric("nepp.core_vertices", counted.nepp.coreSize.toLong, "count"),
      Metric("nepp.cleanup_removals", csr.colLength - validEntries, "count"),
      Metric("nepp.col_accesses", counter.accesses, "count"),
      Metric("stream.run_ms", streamMs, "ms"),
      Metric("stream.share", 100.0 * streamMs / hepMs, "%"),
      Metric("stream.ns_per_edge", if (h2h == 0) 0.0 else streamMs * 1e6 / h2h, "ns"),
      Metric("stream.edges", h2h, "count"),
      Metric("hep.glue_ms", selfMs("hep.partition"), "ms"),
      Metric("hep.traced_ms", hepMs, "ms"),
      Metric("hep.samples", plainMs.length.toLong, "count"),
      Metric("trace.overhead_ms", hepMs - median(plainMs.toSeq), "ms"),
      Metric("graphx.build_s", buildS, "s"),
      Metric("graphx.pagerank_s", median(calls.map(_.seconds)), "s"),
      Metric("graphx.tasks", shuffleMedian(_.tasks), "count"),
      Metric("graphx.shuffle_write_bytes", shuffleMedian(_.shuffleWriteBytes), "B"),
      Metric("graphx.shuffle_read_bytes", shuffleMedian(_.shuffleReadBytes), "B"),
      Metric("graphx.shuffle_records", shuffleMedian(_.shuffleRecords), "count"),
    )
  }
}
