package repro.core

import repro.{Oracle, SparkSpec, TestGraphs}

class HepSpec extends SparkSpec {

  test("HEP assigns every edge (in-memory and h2h) exactly once") {
    val g = TestGraphs.powerLaw(200, 900, gamma = 3.0, seed = 11)
    val res = new Hep(1.0).partition(g, 4)
    Partitioners.validate(g, res)
  }

  test("name follows the paper's HEP-x convention") {
    assert(new Hep(100).name == "HEP-100")
    assert(new Hep(10).name == "HEP-10")
    assert(new Hep(1).name == "HEP-1")
    assert(new Hep(1.5).name == "HEP-1.5")
  }

  test("balancing constraint alpha is honoured") {
    val g = TestGraphs.powerLaw(300, 1500, gamma = 3.0, seed = 12)
    for (tau <- Seq(100.0, 10.0, 1.0); k <- Seq(4, 8)) {
      val res = new Hep(tau).partition(g, k)
      // ceil-capacity plus the h2h cap gives a small constant slack on tiny partitions
      assert(Partitioners.alpha(res) <= 1.05 + k.toDouble / g.nE + 0.05,
        s"tau=$tau k=$k alpha=${Partitioners.alpha(res)}")
    }
  }

  test("memory model shrinks as tau decreases") {
    val g = TestGraphs.powerLaw(400, 2500, gamma = 3.2, seed = 13)
    val mems = Seq(100.0, 2.0, 0.5).map { tau =>
      new Hep(tau).partitionDetailed(g, 8).csr.memoryFootprintBytes(8)
    }
    assert(mems(0) >= mems(1) && mems(1) >= mems(2))
    assert(mems(2) < mems(0), "tau=0.5 must actually prune on a power-law graph")
  }

  test("lower tau diverts more edges to streaming") {
    val g = TestGraphs.powerLaw(400, 2500, gamma = 3.2, seed = 14)
    val h2h = Seq(100.0, 2.0, 0.5).map { tau =>
      new Hep(tau).partitionDetailed(g, 4).csr.h2hEdgeIds.length
    }
    assert(h2h(0) <= h2h(1) && h2h(1) <= h2h(2))
    assert(h2h(2) > h2h(0))
  }

  test("replication factor stays close to NE++ quality at high tau") {
    val g = TestGraphs.powerLaw(300, 1500, gamma = 3.0, seed = 15)
    val k = 8
    val rfHigh = Partitioners.replicationFactor(g, new Hep(100).partition(g, k))
    val rfLow = Partitioners.replicationFactor(g, new Hep(0.5).partition(g, k))
    // the paper's trade-off: lower tau may worsen RF, never dramatically improve it
    assert(rfHigh <= rfLow * 1.15, s"rfHigh=$rfHigh rfLow=$rfLow")
  }

  test("deterministic: identical assignment across repeated runs") {
    val g = TestGraphs.powerLaw(150, 700, gamma = 3.0, seed = 16)
    val a = new Hep(1.0).partition(g, 4).pids
    val b = new Hep(1.0).partition(g, 4).pids
    assert(a.toSeq == b.toSeq)
  }

  test("detailed result exposes consistent replicas") {
    val g = TestGraphs.powerLaw(120, 500, gamma = 3.0, seed = 17)
    val k = 4
    val det = new Hep(1.0).partitionDetailed(g, k)
    val expected = Array.fill(k)(new DenseBitset(g.nV))
    (0 until g.nE).foreach { e =>
      expected(det.result.pids(e)).set(g.src(e)); expected(det.result.pids(e)).set(g.dst(e))
    }
    (0 until k).foreach { p =>
      assert(det.replicas(p).cardinality == expected(p).cardinality, s"partition $p")
    }
  }

  test("replication factor agrees with the Spark/DuckDB metric pipeline") {
    val g = TestGraphs.powerLaw(100, 400, gamma = 3.0, seed = 18)
    val res = new Hep(1.0).partition(g, 4)
    val driverRf = Partitioners.replicationFactor(g, res)
    val assign = Metrics.assignmentDF(spark, g, res)
    val sparkRf = Metrics.replicationFactor(assign, g.nV.toLong)
    assert(math.abs(driverRf - sparkRf) < 1e-9)
    // oracle-check the replica count behind the RF
    val sparkReplicas = Metrics.coverageDF(assign)
      .groupBy().count().withColumnRenamed("count", "replicas")
    Oracle.assertEquivalent(
      sparkReplicas,
      "SELECT COUNT(*) AS replicas FROM (SELECT src AS v, pid FROM assign UNION SELECT dst, pid FROM assign)",
      "assign" -> assign)
  }

  test("works when no vertex qualifies as high-degree") {
    val g = TestGraphs.path(30) // uniform degree ⇒ tau=100 prunes nothing
    val det = new Hep(100).partitionDetailed(g, 3)
    assert(det.csr.h2hEdgeIds.isEmpty)
    Partitioners.validate(g, det.result)
  }

  test("works when almost everything is h2h (tau far below 1)") {
    val g = TestGraphs.twoCliques(6) // uniform degree 5
    val det = new Hep(0.1).partitionDetailed(g, 3)
    assert(det.csr.h2hEdgeIds.length == g.nE, "all vertices high ⇒ all edges h2h")
    Partitioners.validate(g, det.result)
  }

  test("k = 1 puts all edges in the single partition") {
    val g = TestGraphs.powerLaw(80, 300, gamma = 3.0, seed = 19)
    val res = new Hep(1.0).partition(g, 1)
    assert(res.pids.forall(_ == 0))
  }

  test("partition result reports the memory model") {
    val g = TestGraphs.powerLaw(100, 400, gamma = 3.0, seed = 20)
    val res = new Hep(1.0).partition(g, 4)
    assert(res.memoryModelBytes.exists(_ > 0))
  }
}
