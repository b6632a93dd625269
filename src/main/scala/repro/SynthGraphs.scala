package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Synthetic stand-ins for the paper's real-world graphs (Table 3).
  *
  * The originals (com-orkut, it-2004, twitter-2010, …) are multi-GB crawls
  * that are neither available offline nor tractable here; these generators
  * preserve the two properties the experiments actually exercise — see
  * DESIGN.md §3:
  *  - [[powerLawGraph]]: heavy-tailed degree distribution with pronounced
  *    hubs (social-network proxies — OK/TW/LJ). Endpoints are drawn with
  *    density ∝ rank^(1/γ − 1), so a handful of vertices absorb a large
  *    share of the edges and h2h (hub–hub) edges exist at every τ.
  *  - [[webGraph]]: high id-locality plus a small hub layer (web proxies —
  *    IT/WI). Web graphs are the inputs NE-style partitioners handle with
  *    RF → 1, reproducing the paper's web-vs-social contrast.
  *
  * All generators are deterministic in (sizes, seed) within a session, emit
  * a *simple* undirected edge list (no self loops, each undirected edge once,
  * canonicalised as src < dst) and remap vertex ids to a dense `[0, |V|)`
  * range so the driver-side CSR wastes no space.
  */
object SynthGraphs {

  /** A named synthetic graph: `df` has integer columns `src`, `dst`;
    * `nV` is the dense vertex-id count; `kind` echoes Table 3's Type column.
    */
  final case class SynthGraph(name: String, df: DataFrame, nV: Int, kind: String) {
    def edgeCount: Long = df.count()
  }

  /** Slices of the generators' row ranges. `rand(seed)` draws one stream per
    * slice, so the graph depends on the slice count; fixing it keeps a proxy
    * the same under any `local[n]`. 4 is the count a 4-core `local[*]` and
    * perfbench (`spark.default.parallelism = 4`) used before, so their
    * graphs are unchanged.
    */
  final val GeneratorSlices = 4

  /** Power-law graph: both endpoints drawn with density ∝ (rank+1)^(1/γ−1)
    * over `[0, nVRaw)`; larger γ ⇒ heavier hubs. γ = 3 gives a top-hub
    * degree several hundred times the mean at the sizes used here, so
    * HEP-100 already prunes.
    */
  def powerLawGraph(spark: SparkSession, nVRaw: Int, targetE: Long,
                    gamma: Double = 3.0, seed: Long = 7): DataFrame = {
    val raw = spark.range(0, (targetE * 1.6).toLong, 1, GeneratorSlices).select(
      floor(pow(rand(seed), gamma) * nVRaw).cast("int").as("a"),
      floor(pow(rand(seed + 1), gamma) * nVRaw).cast("int").as("b"),
    )
    simplify(raw, targetE)
  }

  /** Web-like graph: `1 - hubFrac` of the edges connect vertices at small id
    * distance (≤ `window`), the rest point to a tiny hub layer.
    */
  def webGraph(spark: SparkSession, nVRaw: Int, targetE: Long,
               window: Int = 12, hubFrac: Double = 0.10, nHubs: Int = 40,
               seed: Long = 11): DataFrame = {
    val rows = (targetE * 1.6).toLong
    val raw = spark.range(0, rows, 1, GeneratorSlices).select(
      floor(rand(seed) * nVRaw).cast("int").as("a"),
      rand(seed + 1).as("u"),
      rand(seed + 2).as("w"),
      rand(seed + 3).as("h"),
    ).select(
      col("a"),
      when(col("u") < hubFrac,
        floor(pow(col("h"), 2.5) * nHubs).cast("int"))
        .otherwise(pmod(col("a") + lit(1) + floor(col("w") * window), lit(nVRaw)).cast("int"))
        .as("b"),
    )
    simplify(raw, targetE)
  }

  /** Canonicalise (src < dst), drop self loops and duplicates, cap at
    * `targetE` edges, and remap vertex ids densely.
    */
  private def simplify(raw: DataFrame, targetE: Long): DataFrame = {
    val canon = raw
      .filter(col("a") =!= col("b"))
      .select(least(col("a"), col("b")).as("src"), greatest(col("a"), col("b")).as("dst"))
      .distinct()
      .limit(targetE.toInt)
    remapDense(canon)
  }

  /** Replace vertex ids by their dense rank over the vertices that actually
    * appear, preserving relative order (so web-graph locality survives).
    */
  def remapDense(edges: DataFrame): DataFrame = {
    val verts = edges.select(col("src").as("v"))
      .union(edges.select(col("dst").as("v")))
      .distinct()
      .withColumn("nid", (row_number().over(Window.orderBy("v")) - 1))
    edges
      .join(verts.withColumnRenamed("v", "src").withColumnRenamed("nid", "nsrc"), "src")
      .join(verts.withColumnRenamed("v", "dst").withColumnRenamed("nid", "ndst"), "dst")
      .select(col("nsrc").as("src"), col("ndst").as("dst"))
  }

  /** Count the dense vertex-id space of a remapped edge list. */
  def vertexCount(edges: DataFrame): Int = {
    val m = edges.agg(max(greatest(col("src"), col("dst")))).head()
    if (m.isNullAt(0)) 0 else m.getInt(0) + 1
  }

  // -- named proxies for the Table 3 graphs used in Tables 4–6 ---------------

  /** com-orkut proxy (social, power-law), ~1/200 linear scale. */
  def okProxy(spark: SparkSession, scale: Double = 1.0): SynthGraph =
    mk(spark, "OK-proxy", "Social",
      powerLawGraph(spark, (15500 * scale).toInt, (585000 * scale).toLong, gamma = 3.0, seed = 17))

  /** it-2004 proxy (web, high locality), ~1/2000 linear scale. The wider
    * window keeps enough distinct local pairs available to reach the edge
    * target at this density.
    */
  def itProxy(spark: SparkSession, scale: Double = 1.0): SynthGraph =
    mk(spark, "IT-proxy", "Web",
      webGraph(spark, (20500 * scale).toInt, (600000 * scale).toLong, window = 48, seed = 19))

  /** twitter-2010 proxy (social, power-law, largest of the three), ~1/2000. */
  def twProxy(spark: SparkSession, scale: Double = 1.0): SynthGraph =
    mk(spark, "TW-proxy", "Social",
      powerLawGraph(spark, (21000 * scale).toInt, (750000 * scale).toLong, gamma = 3.2, seed = 23))

  /** com-livejournal proxy — small, for unit/integration tests. */
  def ljProxy(spark: SparkSession, scale: Double = 1.0): SynthGraph =
    mk(spark, "LJ-proxy", "Social",
      powerLawGraph(spark, (4000 * scale).toInt, (35000 * scale).toLong, gamma = 3.0, seed = 29))

  /** wiki-links proxy — small web graph, for unit/integration tests. */
  def wiProxy(spark: SparkSession, scale: Double = 1.0): SynthGraph =
    mk(spark, "WI-proxy", "Web",
      webGraph(spark, (6000 * scale).toInt, (38000 * scale).toLong, seed = 31))

  private def mk(spark: SparkSession, name: String, kind: String, df0: DataFrame): SynthGraph = {
    val df = df0.cache()
    SynthGraph(name, df, vertexCount(df), kind)
  }
}
