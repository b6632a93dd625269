package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

class GraphDataSpec extends SparkSpec {

  test("degrees count both endpoints of every edge") {
    val g = GraphData.fromEdges(4, Seq((0, 1), (0, 2), (0, 3), (1, 2)))
    assert(g.degrees.toSeq == Seq(3, 2, 2, 1))
  }

  test("mean degree is 2|E|/|V|") {
    val g = TestGraphs.star(5)
    assert(g.meanDegree === 2.0 * 5 / 6)
  }

  test("edge count") {
    val g = TestGraphs.path(10)
    assert(g.nE == 9)
  }

  test("fromEdges preserves edge orientation") {
    val g = GraphData.fromEdges(3, Seq((2, 1), (0, 2)))
    assert(g.src.toSeq == Seq(2, 0) && g.dst.toSeq == Seq(1, 2))
  }

  test("fromDF round-trips a DataFrame edge list") {
    import spark.implicits._
    val df = Seq((0, 1), (1, 2), (2, 3)).toDF("src", "dst")
    val g = GraphData.fromDF(df, 4)
    assert(g.nE == 3 && g.nV == 4)
    assert(g.src.toSeq.sorted == Seq(0, 1, 2))
  }

  test("fromDF accepts long ids within Int range") {
    import spark.implicits._
    val df = Seq((0L, 1L), (1L, 2L)).toDF("src", "dst")
    val g = GraphData.fromDF(df, 3)
    assert(g.degrees.toSeq == Seq(1, 2, 1))
  }

  test("fromDF rejects ids outside the declared vertex range") {
    import spark.implicits._
    val df = Seq((0, 7)).toDF("src", "dst")
    intercept[IllegalArgumentException](GraphData.fromDF(df, 4))
  }

  test("degrees agree with the DuckDB oracle") {
    import spark.implicits._
    val g = TestGraphs.random(30, 60, seed = 5)
    val edges = (0 until g.nE).map(e => (g.src(e), g.dst(e))).toDF("src", "dst")
    val sparkDeg = edges.select($"src".as("v")).union(edges.select($"dst".as("v")))
      .groupBy("v").agg(count(lit(1)).as("deg"))
    Oracle.assertEquivalent(
      sparkDeg,
      "SELECT v, COUNT(*) AS deg FROM (SELECT src AS v FROM edges UNION ALL SELECT dst FROM edges) GROUP BY v",
      "edges" -> edges)
    // and the driver-side degrees array matches the DataFrame
    val fromDf = sparkDeg.collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    (0 until g.nV).foreach { v =>
      assert(g.degrees(v).toLong == fromDf.getOrElse(v, 0L), s"vertex $v")
    }
  }

  test("misaligned src/dst arrays are rejected") {
    intercept[IllegalArgumentException](new GraphData(3, Array(0, 1), Array(1)))
  }

  test("a self loop is rejected with a message naming the edge") {
    val edges = Seq((0, 1), (1, 2), (2, 3), (3, 3), (3, 4), (4, 0))
    val err = intercept[IllegalArgumentException](GraphData.fromEdges(5, edges))
    assert(err.getMessage.contains("edge 3 is a self loop (3, 3)"), err.getMessage)
    assert(GraphData.fromEdges(5, edges.filter { case (u, v) => u != v }).nE == 5)
  }

  test("an undirected edge given twice is rejected with a message naming both edges") {
    for ((edges, named) <- Seq(
        (Seq((0, 1), (1, 2), (0, 1)), "edges 0 (0, 1) and 2 (0, 1)"),
        (Seq((0, 1), (2, 3), (3, 2)), "edges 1 (2, 3) and 2 (3, 2)"),
        (Seq((1, 0), (0, 1), (1, 0)), "edges 0 (1, 0) and 1 (0, 1)"))) {
      val err = intercept[IllegalArgumentException](GraphData.fromEdges(4, edges))
      assert(err.getMessage.contains(named) && err.getMessage.contains("same undirected edge"), err.getMessage)
    }
    assert(GraphData.fromEdges(4, Seq((0, 1), (1, 2), (0, 2), (2, 3))).nE == 4)
  }

  test("an id outside [0, nV) is rejected with a message naming the edge") {
    for ((src, dst, named) <- Seq(
        (Array(0, 1, 2), Array(1, 2, 7), "edge 2 (2, 7)"),
        (Array(0, -1, 2), Array(1, 2, 3), "edge 1 (-1, 2)"))) {
      val err = intercept[IllegalArgumentException](new GraphData(4, src, dst))
      assert(err.getMessage.contains(named) && err.getMessage.contains("[0, 4)"), err.getMessage)
    }
  }

  test("a negative vertex count is rejected") {
    intercept[IllegalArgumentException](new GraphData(-1, Array.emptyIntArray, Array.emptyIntArray))
  }
}
