package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.SynthGraphs

/** A synthetic input graph: the generator and parameters of one of the
  * repo's named proxies, with the seed left open.
  *
  * @param proxyName   name of the [[SynthGraphs]] proxy these parameters copy
  * @param defaultSeed the seed the proxy itself uses
  * @param generate    builds the edge list for a given seed
  * @param proxy       builds the named proxy, for the check that
  *                    `generate(defaultSeed)` reproduces it edge for edge
  */
final case class GraphSpec(
    proxyName: String,
    defaultSeed: Long,
    generate: (SparkSession, Long) => DataFrame,
    proxy: SparkSession => SynthGraphs.SynthGraph,
)

/** One benchmark workload: edge list in → `Hep.partition` with (tau, k) →
  * GraphX build + PageRank.
  */
final case class Workload(name: String, graph: GraphSpec, tau: Double, k: Int)

object Workloads {

  /** OK-proxy (585k edges): power-law with hubs on the lowest ids. */
  val OkSocial: GraphSpec = GraphSpec("OK-proxy", 17L,
    (spark, seed) => SynthGraphs.powerLawGraph(spark, 15500, 585000L, gamma = 3.0, seed = seed),
    spark => SynthGraphs.okProxy(spark))

  /** Why each workload is here is recorded in BENCHMARK.json and METRICS.md:
    * the first is NE++-bound and keeps the hub-first id order behind the
    * seed-spill cascade; the second prunes to tau = 0.5, so informed
    * streaming does about 90 % of the partitioning work. Both use k = 32:
    * at k = 256 the GraphX step of a traced run alone takes ~80 s.
    */
  val all: Seq[Workload] = Seq(
    Workload("ok-social-tau100-k32", OkSocial, tau = 100.0, k = 32),
    Workload("ok-social-tau0.5-k32", OkSocial, tau = 0.5, k = 32),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; expected one of ${all.map(_.name).mkString(", ")}"))
}
