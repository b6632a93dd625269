package repro

import org.apache.spark.sql.functions._

class SynthGraphsSpec extends SparkSpec {

  private lazy val pl = SynthGraphs.powerLawGraph(spark, 2000, 8000, seed = 101).cache()
  private lazy val web = SynthGraphs.webGraph(spark, 3000, 9000, seed = 103).cache()

  test("power-law graph is simple: no self loops, canonical, distinct") {
    assert(pl.filter(col("src") === col("dst")).count() == 0)
    assert(pl.filter(col("src") >= col("dst")).count() == 0)
    assert(pl.count() == pl.distinct().count())
  }

  test("web graph is simple: no self loops, canonical, distinct") {
    assert(web.filter(col("src") === col("dst")).count() == 0)
    assert(web.filter(col("src") >= col("dst")).count() == 0)
    assert(web.count() == web.distinct().count())
  }

  test("power-law graph hits (approximately) the requested edge count") {
    val n = pl.count()
    assert(n > 6000 && n <= 8000, s"got $n edges")
  }

  test("vertex ids are dense after remapping") {
    val nV = SynthGraphs.vertexCount(pl)
    val distinct = pl.select(col("src").as("v")).union(pl.select(col("dst").as("v")))
      .distinct().count()
    assert(distinct == nV, s"ids must cover [0,$nV) without gaps: $distinct present")
    val minId = pl.agg(min(least(col("src"), col("dst")))).head().getInt(0)
    assert(minId == 0)
  }

  test("power-law graph has pronounced hubs") {
    val g = repro.core.GraphData.fromDF(pl, SynthGraphs.vertexCount(pl))
    val maxDeg = g.degrees.max
    assert(maxDeg > 20 * g.meanDegree,
      s"max degree $maxDeg vs mean ${g.meanDegree} — not heavy-tailed enough")
  }

  test("power-law graph yields h2h edges at tau = 1 (HEP's streaming phase is exercised)") {
    val g = repro.core.GraphData.fromDF(pl, SynthGraphs.vertexCount(pl))
    val csr = repro.core.PrunedCsr.build(g, Some(1.0))
    assert(csr.h2hEdgeIds.nonEmpty)
  }

  test("web graph is id-local: most edges span a short id distance") {
    val local = web.filter(abs(col("dst") - col("src")) <= lit(1000)).count()
    assert(local.toDouble / web.count() > 0.7, "web proxy lost its locality")
  }

  test("generators are deterministic within a session") {
    val a = SynthGraphs.powerLawGraph(spark, 500, 1500, seed = 107)
      .orderBy("src", "dst").collect().toSeq
    val b = SynthGraphs.powerLawGraph(spark, 500, 1500, seed = 107)
      .orderBy("src", "dst").collect().toSeq
    assert(a == b)
  }

  test("generators do not depend on the session's default parallelism") {
    val key = "spark.sql.leafNodeDefaultParallelism"
    def edges(parallelism: Option[Int]) = {
      val saved = spark.conf.getOption(key)
      parallelism.foreach(spark.conf.set(key, _))
      try Seq(SynthGraphs.powerLawGraph(spark, 500, 1500, seed = 110),
          SynthGraphs.webGraph(spark, 600, 1500, seed = 111))
        .map(_.orderBy("src", "dst").collect().toSeq)
      finally saved.fold(spark.conf.unset(key))(spark.conf.set(key, _))
    }
    val unset = edges(None)
    assert(edges(Some(2)) == unset)
    assert(edges(Some(3)) == unset)
  }

  test("different seeds give different graphs") {
    val a = SynthGraphs.powerLawGraph(spark, 500, 1500, seed = 108)
      .orderBy("src", "dst").collect().toSeq
    val b = SynthGraphs.powerLawGraph(spark, 500, 1500, seed = 109)
      .orderBy("src", "dst").collect().toSeq
    assert(a != b)
  }

  test("named proxies carry the Table 3 metadata") {
    val lj = SynthGraphs.ljProxy(spark, scale = 0.1)
    assert(lj.name == "LJ-proxy" && lj.kind == "Social")
    assert(lj.nV > 0 && lj.edgeCount > 0)
    val wi = SynthGraphs.wiProxy(spark, scale = 0.1)
    assert(wi.name == "WI-proxy" && wi.kind == "Web")
  }

  test("proxy scale shrinks the graph") {
    val small = SynthGraphs.ljProxy(spark, scale = 0.05)
    val big = SynthGraphs.ljProxy(spark, scale = 0.2)
    assert(small.edgeCount < big.edgeCount)
  }

  test("vertexCount of an empty edge list is zero") {
    import spark.implicits._
    val empty = Seq.empty[(Int, Int)].toDF("src", "dst")
    assert(SynthGraphs.vertexCount(empty) == 0)
  }
}
