package repro.graphx

import org.apache.spark.graphx._
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import org.apache.spark.{HashPartitioner, Partitioner}

import repro.core.{GraphData, PartitionResult}

/** Spark/GraphX substrate for the paper's Section 5.3 experiment: run
  * PageRank, BFS and Connected Components over a graph whose *edge
  * partitioning is supplied by one of our partitioners* instead of GraphX's
  * built-in `PartitionStrategy`.
  *
  * Integration point: every edge is keyed by its assigned partition id,
  * shuffled with an identity [[Partitioner]] so that GraphX partition `p`
  * holds exactly the paper-partitioner's `p_i`, and the `Graph` is built via
  * `Graph.fromEdges`, which preserves the incoming edge partitioning — this
  * *is* the replacement for `Graph.partitionBy`. GraphX's routing tables
  * then replicate each vertex to exactly the partitions our partitioner
  * covers it on, so communication volume is proportional to our replication
  * factor, as in the paper.
  */
object GraphXRunner {

  /** Routes pre-assigned keys verbatim: key `p` → Spark partition `p`. */
  final class IdentityPartitioner(k: Int) extends Partitioner {
    override def numPartitions: Int = k
    override def getPartition(key: Any): Int = key.asInstanceOf[Int]
  }

  /** Wall-clock processing times (milliseconds), mirroring Table 4's
    * PageRank / BFS / Conn. Comp. columns.
    */
  final case class ProcessingTimes(pageRankMs: Long, bfsMs: Long, ccMs: Long)

  /** Build a GraphX graph with the given edge partitioning, materialised and
    * cached. Edge attribute and vertex attribute are unit-like Ints.
    */
  def buildGraph(spark: SparkSession, g: GraphData, res: PartitionResult): Graph[Int, Int] = {
    val sc = spark.sparkContext
    // one broadcast ships the arrays once; captured in the closure they
    // would travel in every task binary
    val arrays = sc.broadcast((g.src, g.dst, res.pids))
    val keyed = sc.parallelize(0 until g.nE, math.max(1, res.k)).map { e =>
      val (src, dst, pids) = arrays.value
      (pids(e), Edge(src(e).toLong, dst(e).toLong, 1))
    }
    val edges = keyed.partitionBy(new IdentityPartitioner(res.k)).map(_._2)
    val graph = Graph.fromEdges(edges, defaultValue = 0,
      edgeStorageLevel = StorageLevel.MEMORY_ONLY,
      vertexStorageLevel = StorageLevel.MEMORY_ONLY)
    graph.cache()
    graph.edges.count() // force materialisation before timing anything
    graph
  }

  /** Static PageRank for `iters` iterations; returns elapsed millis. */
  def timePageRank(graph: Graph[Int, Int], iters: Int): Long = timed {
    graph.staticPageRank(iters).vertices.count()
  }

  /** BFS via Pregel from each seed in turn (the paper runs BFS
    * "subsequently from 10 different random seed vertices"); edges are
    * traversed in both directions because the graph is undirected.
    */
  def timeBfs(graph: Graph[Int, Int], seeds: Seq[Long]): Long = timed {
    seeds.foreach { s => bfsDistances(graph, s).vertices.count() }
  }

  /** Single-source BFS distances; unreachable vertices keep Int.MaxValue. */
  def bfsDistances(graph: Graph[Int, Int], seed: Long): Graph[Int, Int] = {
    val init = graph.mapVertices((id, _) => if (id == seed) 0 else Int.MaxValue)
    init.pregel(Int.MaxValue, activeDirection = EdgeDirection.Either)(
      (_, d, msg) => math.min(d, msg),
      triplet => {
        val out =
          if (triplet.srcAttr != Int.MaxValue && triplet.srcAttr + 1 < triplet.dstAttr)
            Iterator((triplet.dstId, triplet.srcAttr + 1))
          else Iterator.empty
        val back =
          if (triplet.dstAttr != Int.MaxValue && triplet.dstAttr + 1 < triplet.srcAttr)
            Iterator((triplet.srcId, triplet.dstAttr + 1))
          else Iterator.empty
        out ++ back
      },
      (a, b) => math.min(a, b))
  }

  /** Connected components; returns elapsed millis. */
  def timeCc(graph: Graph[Int, Int]): Long = timed {
    graph.connectedComponents().vertices.count()
  }

  /** Run the full Table 4 processing suite over one partitioned graph. */
  def run(spark: SparkSession, g: GraphData, res: PartitionResult,
          prIters: Int, bfsSeeds: Seq[Long]): ProcessingTimes = {
    val graph = buildGraph(spark, g, res)
    try {
      ProcessingTimes(
        pageRankMs = timePageRank(graph, prIters),
        bfsMs = timeBfs(graph, bfsSeeds),
        ccMs = timeCc(graph))
    } finally graph.unpersist(blocking = false)
  }

  /** Deterministic, well-spread BFS seed vertices. */
  def defaultSeeds(nV: Int, n: Int): Seq[Long] =
    (0 until n).map(i => ((i.toLong * 2654435761L) % math.max(1, nV)).abs)

  private def timed(body: => Unit): Long = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1000000L
  }
}
