package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Partitioning-quality metrics, computed with the DataFrame API so tests
  * can cross-check every number against DuckDB via [[repro.Oracle]].
  *
  * Definitions (Section 2 / Table 5 of the paper):
  *  - replication factor `RF = (1/|V|) Σ_i |V(p_i)|`, where `V(p_i)` is the
  *    set of vertices covered by the edges of partition `p_i`;
  *  - edge balance `alpha = k * max_i |p_i| / |E|`, driver-side in
  *    [[Partitioners.alpha]];
  *  - vertex balance = std-deviation / average of `|V(p_i)|` over i.
  */
object Metrics {

  /** Materialise an assignment as a `(src, dst, pid)` DataFrame. */
  def assignmentDF(spark: SparkSession, g: GraphData, res: PartitionResult): DataFrame = {
    import spark.implicits._
    val rows = (0 until g.nE).map(e => (g.src(e), g.dst(e), res.pids(e)))
    rows.toDF("src", "dst", "pid")
  }

  /** `(vertex, pid)` coverage pairs, deduplicated. */
  def coverageDF(assign: DataFrame): DataFrame =
    assign.select(col("src").as("v"), col("pid"))
      .union(assign.select(col("dst").as("v"), col("pid")))
      .distinct()

  /** Replication factor; `nV` is the graph's vertex count (the denominator
    * includes isolated vertices if the id space has any).
    */
  def replicationFactor(assign: DataFrame, nV: Long): Double = {
    val replicas = coverageDF(assign).count()
    replicas.toDouble / nV
  }

  /** Number of distinct covered vertices per partition, index-aligned with
    * partition ids (partitions with no edges report 0).
    */
  def vertexCounts(assign: DataFrame, k: Int): Array[Long] = {
    val counts = coverageDF(assign)
      .groupBy("pid").agg(count(lit(1)).as("c"))
      .collect()
      .map(r => r.getInt(0) -> r.getLong(1))
      .toMap
    Array.tabulate(k)(p => counts.getOrElse(p, 0L))
  }

  /** Table 5's metric: population std-deviation over the per-partition
    * vertex-replica counts, divided by their average.
    */
  def vertexBalance(assign: DataFrame, k: Int): Double = {
    val c = vertexCounts(assign, k).map(_.toDouble)
    val avg = c.sum / k
    if (avg == 0.0) 0.0
    else math.sqrt(c.map(x => (x - avg) * (x - avg)).sum / k) / avg
  }
}
