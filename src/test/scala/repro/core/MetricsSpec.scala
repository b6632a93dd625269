package repro.core

import repro.{Oracle, SparkSpec, TestGraphs}

class MetricsSpec extends SparkSpec {

  private def fixture(): (GraphData, PartitionResult) = {
    val g = GraphData.fromEdges(6, Seq((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
    // hand-made assignment: ring cut into two halves at vertices 0 and 3
    val pids = Array(0, 0, 0, 1, 1, 1)
    (g, PartitionResult(2, pids, "manual", 0))
  }

  test("replication factor on a hand-checked example") {
    val (g, res) = fixture()
    val assign = Metrics.assignmentDF(spark, g, res)
    // partition 0 covers {0,1,2,3}, partition 1 covers {3,4,5,0} ⇒ 8 replicas / 6 vertices
    assert(math.abs(Metrics.replicationFactor(assign, 6) - 8.0 / 6.0) < 1e-12)
  }

  test("replication factor matches the driver-side computation on random data") {
    val g = TestGraphs.random(40, 160, seed = 30)
    val res = new Hep(1.0).partition(g, 4)
    val assign = Metrics.assignmentDF(spark, g, res)
    assert(math.abs(Metrics.replicationFactor(assign, g.nV.toLong) -
      Partitioners.replicationFactor(g, res)) < 1e-12)
  }

  test("coverage pairs agree with the DuckDB oracle") {
    val (g, res) = fixture()
    val assign = Metrics.assignmentDF(spark, g, res)
    Oracle.assertEquivalent(
      Metrics.coverageDF(assign),
      "SELECT src AS v, pid FROM assign UNION SELECT dst AS v, pid FROM assign",
      "assign" -> assign)
  }

  test("vertex counts per partition on the hand-checked example") {
    val (g, res) = fixture()
    val assign = Metrics.assignmentDF(spark, g, res)
    assert(Metrics.vertexCounts(assign, 2).toSeq == Seq(4L, 4L))
  }

  test("vertex counts agree with the DuckDB oracle") {
    val g = TestGraphs.random(30, 100, seed = 31)
    val res = new Hep(1.0).partition(g, 3)
    val assign = Metrics.assignmentDF(spark, g, res)
    import org.apache.spark.sql.functions._
    val sparkCounts = Metrics.coverageDF(assign)
      .groupBy("pid").agg(count(lit(1)).as("c"))
    Oracle.assertEquivalent(
      sparkCounts,
      "SELECT pid, COUNT(*) AS c FROM (SELECT src AS v, pid FROM assign UNION SELECT dst, pid FROM assign) GROUP BY pid",
      "assign" -> assign)
  }

  test("vertex balance is zero for perfectly balanced coverage") {
    val (g, res) = fixture()
    val assign = Metrics.assignmentDF(spark, g, res)
    assert(Metrics.vertexBalance(assign, 2) == 0.0)
  }

  test("vertex balance on an unbalanced example") {
    val g = GraphData.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    val res = PartitionResult(2, Array(0, 0, 0, 1), "manual", 0)
    val assign = Metrics.assignmentDF(spark, g, res)
    // counts: p0 covers {0,1,2,3}=4, p1 covers {3,4}=2 ⇒ avg 3, std 1 ⇒ 1/3
    assert(math.abs(Metrics.vertexBalance(assign, 2) - 1.0 / 3.0) < 1e-12)
  }

  test("empty partitions report zero vertices") {
    val g = GraphData.fromEdges(3, Seq((0, 1)))
    val res = PartitionResult(4, Array(2), "manual", 0)
    val assign = Metrics.assignmentDF(spark, g, res)
    assert(Metrics.vertexCounts(assign, 4).toSeq == Seq(0L, 0L, 2L, 0L))
  }

  test("edge balance alpha of a skewed assignment") {
    val g = GraphData.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    val res = PartitionResult(2, Array(0, 0, 0, 1), "manual", 0)
    assert(math.abs(Partitioners.alpha(res) - 3.0 * 2 / 4) < 1e-12)
  }
}
