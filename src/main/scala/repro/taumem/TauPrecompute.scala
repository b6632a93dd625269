package repro.taumem

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{GraphData, PrunedCsr}

/** Section 4.4 / Table 2: pre-compute, for a grid of τ candidates, the
  * memory footprint HEP would need, so the maximal τ that fits a memory
  * bound can be chosen before partitioning. Two implementations of the same
  * model: on the driver's [[GraphData]], the paper's single scan (one sort of
  * the degrees, then one binary search per τ), which Table 2 times; and with
  * the DataFrame API ("a trivially parallelizable process"), one degree
  * aggregation, then one cumulative filter per τ, checked against DuckDB.
  *
  * Footprint per Section 4.2, as [[PrunedCsr.memoryFootprintBytes]] counts it:
  * `Σ_{v ∈ V_l} d(v) * b_id` plus [[PrunedCsr.fixedFootprintBytes]], with
  * `V_l = {v : d(v) ≤ τ * meanDegree}`.
  */
object TauPrecompute {

  /** One grid entry of the pre-computation. */
  final case class TauFootprint(
      tau: Double,
      highVertices: Long,
      lowAdjacencyEntries: Long,
      footprintBytes: Long,
  )

  /** Per-vertex degree DataFrame (`v`, `deg`) of an edge list. */
  def degreesDF(edges: DataFrame): DataFrame =
    edges.select(col("src").as("v"))
      .union(edges.select(col("dst").as("v")))
      .groupBy("v").agg(count(lit(1)).as("deg"))

  /** Evaluate the footprint model for every τ in `taus`. */
  def footprints(spark: SparkSession, edges: DataFrame, nV: Long, k: Int,
                 taus: Seq[Double]): Seq[TauFootprint] = {
    val deg = degreesDF(edges).cache()
    try {
      val nE = edges.count()
      val mean = 2.0 * nE / nV
      val fixed = PrunedCsr.fixedFootprintBytes(nV, k)
      taus.map { t =>
        val agg = deg.agg(
          sum(when(col("deg") <= t * mean, col("deg")).otherwise(lit(0L))).as("lowAdj"),
          count(when(col("deg") > t * mean, lit(1))).as("high"),
        ).head()
        val lowAdj = if (agg.isNullAt(0)) 0L else agg.getLong(0)
        TauFootprint(t, agg.getLong(1), lowAdj, lowAdj * PrunedCsr.IdBytes + fixed)
      }
    } finally { deg.unpersist(); () }
  }

  /** [[footprints]] on the driver: the degrees of `g` sorted once, with
    * prefix sums, so each τ costs one binary search for the first degree
    * above `τ · meanDegree`, the rule of [[GraphData.highDegree]].
    */
  def footprints(g: GraphData, k: Int, taus: Seq[Double]): Seq[TauFootprint] = {
    val deg = g.degrees.clone()
    java.util.Arrays.sort(deg)
    val below = new Array[Long](deg.length + 1) // below(i): sum of the i smallest degrees
    var i = 0
    while (i < deg.length) { below(i + 1) = below(i) + deg(i); i += 1 }
    val fixed = PrunedCsr.fixedFootprintBytes(g.nV, k)
    taus.map { t =>
      val threshold = t * g.meanDegree
      var lo = 0 // deg(lo until hi) holds the first degree above threshold
      var hi = deg.length
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (deg(mid) > threshold) hi = mid else lo = mid + 1
      }
      TauFootprint(t, deg.length - lo, below(lo), below(lo) * PrunedCsr.IdBytes + fixed)
    }
  }

  /** Largest τ from the grid whose footprint fits `memBytes` (Section 4.4's
    * selection rule); None when even the smallest candidate exceeds it.
    */
  def maxTauWithinBudget(entries: Seq[TauFootprint], memBytes: Long): Option[Double] =
    entries.filter(_.footprintBytes <= memBytes)
      .sortBy(_.tau).lastOption.map(_.tau)
}
