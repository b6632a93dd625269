package repro.taumem

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.core.{GraphData, PrunedCsr}

class TauPrecomputeSpec extends SparkSpec {

  private def edgesDF(g: GraphData) = {
    import spark.implicits._
    (0 until g.nE).map(e => (g.src(e), g.dst(e))).toDF("src", "dst")
  }

  test("degreesDF agrees with the DuckDB oracle") {
    val g = TestGraphs.powerLaw(80, 300, gamma = 3.0, seed = 90)
    val edges = edgesDF(g)
    Oracle.assertEquivalent(
      TauPrecompute.degreesDF(edges),
      "SELECT v, COUNT(*) AS deg FROM (SELECT src AS v FROM edges UNION ALL SELECT dst FROM edges) GROUP BY v",
      "edges" -> edges)
  }

  test("footprint matches the actually built CSR for every tau") {
    val g = TestGraphs.powerLaw(150, 600, gamma = 3.0, seed = 91)
    val k = 16
    val taus = Seq(100.0, 2.0, 1.0, 0.5)
    val fps = TauPrecompute.footprints(spark, edgesDF(g), g.nV.toLong, k, taus)
    taus.zip(fps).foreach { case (tau, fp) =>
      val csr = PrunedCsr.build(g, Some(tau))
      assert(fp.footprintBytes == csr.memoryFootprintBytes(k), s"tau=$tau")
      assert(fp.highVertices == csr.highCount.toLong, s"tau=$tau high count")
      assert(fp.lowAdjacencyEntries == csr.colLength.toLong, s"tau=$tau col entries")
    }
  }

  test("the driver-side footprints equal the DataFrame job's and the built CSR's") {
    val k = 32
    val taus = Seq(100.0, 10, 4, 2, 1, 0.5, 1e-3)
    val base = TestGraphs.random(100, 300, seed = 95)
    val graphs = Seq(
      TestGraphs.powerLaw(400, 2500, gamma = 2.5, seed = 94),
      TestGraphs.twoCliques(6), // every degree equals the mean: tau = 1 sits on the rule's boundary
      // edges only between odd ids: every even vertex is isolated
      GraphData.fromEdges(201, (0 until base.nE).map(e => (2 * base.src(e) + 1, 2 * base.dst(e) + 1))),
    )
    graphs.foreach { g =>
      val fps = TauPrecompute.footprints(g, k, taus)
      assert(fps == TauPrecompute.footprints(spark, edgesDF(g), g.nV.toLong, k, taus))
      taus.zip(fps).foreach { case (tau, fp) =>
        val csr = PrunedCsr.build(g, Some(tau))
        assert(fp.footprintBytes == csr.memoryFootprintBytes(k), s"tau=$tau")
        assert(fp.highVertices == csr.highCount.toLong, s"tau=$tau high count")
        assert(fp.lowAdjacencyEntries == csr.colLength.toLong, s"tau=$tau col entries")
      }
    }
    assert(TauPrecompute.footprints(new GraphData(0, Array.empty, Array.empty), k, taus)
      .forall(fp => fp.highVertices == 0 && fp.lowAdjacencyEntries == 0))
  }

  test("footprint is monotone non-decreasing in tau") {
    val g = TestGraphs.powerLaw(200, 800, gamma = 3.2, seed = 92)
    val fps = TauPrecompute.footprints(spark, edgesDF(g), g.nV.toLong, 32,
      Seq(0.25, 0.5, 1.0, 2.0, 10.0))
    val bytes = fps.map(_.footprintBytes)
    assert(bytes == bytes.sorted, s"footprints must grow with tau: $bytes")
  }

  test("low-adjacency byte sum agrees with the DuckDB oracle") {
    val g = TestGraphs.powerLaw(100, 400, gamma = 3.0, seed = 93)
    val edges = edgesDF(g)
    val mean = 2.0 * g.nE / g.nV
    val tau = 1.0
    val sparkSum = TauPrecompute.degreesDF(edges)
      .agg(sum(when(col("deg") <= tau * mean, col("deg")).otherwise(lit(0L)))
        .cast("double").as("low_adj"))
    Oracle.assertEquivalent(
      sparkSum,
      s"""SELECT CAST(SUM(CASE WHEN deg <= $tau * $mean THEN deg ELSE 0 END) AS DOUBLE) AS low_adj
          FROM (SELECT v, COUNT(*) AS deg
                FROM (SELECT src AS v FROM edges UNION ALL SELECT dst FROM edges)
                GROUP BY v)""",
      "edges" -> edges)
  }

  test("maxTauWithinBudget picks the largest fitting tau") {
    val entries = Seq(
      TauPrecompute.TauFootprint(0.5, 10, 100, 1000),
      TauPrecompute.TauFootprint(1.0, 5, 200, 2000),
      TauPrecompute.TauFootprint(10.0, 1, 400, 4000),
    )
    assert(TauPrecompute.maxTauWithinBudget(entries, 2500).contains(1.0))
    assert(TauPrecompute.maxTauWithinBudget(entries, 5000).contains(10.0))
    assert(TauPrecompute.maxTauWithinBudget(entries, 500).isEmpty)
  }

  test("a graph with uniform degrees prunes nothing above tau = 1") {
    val g = TestGraphs.twoCliques(6) // every degree = 5 = mean
    val fps = TauPrecompute.footprints(spark, edgesDF(g), g.nV.toLong, 4, Seq(1.0))
    assert(fps.head.highVertices == 0)
    assert(fps.head.lowAdjacencyEntries == 2L * g.nE)
  }
}
