package repro.bench

import repro.core.GraphData
import repro.harness.TableHarness

/** Table 3: the dataset roster. The paper lists 7 real graphs; we print the
  * same columns (|V|, |E|, binary-edge-list size, type) for the synthetic
  * proxies actually used by Tables 4–6 (substitution documented in
  * DESIGN.md §3).
  */
class Table3DatasetsBench extends BenchBase {

  private lazy val table = TableHarness.table3(spark, benchScale)
  import table.{graphs, rows}

  test("produce Table 3 dataset statistics") {
    printTable(table)
    assert(rows.length == 5)
    rows.foreach(r => assert(r.nV > 0 && r.nE > 0 && r.sizeBytes == r.nE * 8))
  }

  test("social proxies are heavy-tailed; web proxies are id-local") {
    graphs.filter(_.kind == "Social").foreach { sg =>
      val g = GraphData.fromDF(sg.df, sg.nV)
      assert(g.degrees.max > 20 * g.meanDegree, s"${sg.name} lacks hubs")
    }
    graphs.filter(_.kind == "Web").foreach { sg =>
      import org.apache.spark.sql.functions._
      val local = sg.df.filter(abs(col("dst") - col("src")) <= lit(1000)).count()
      assert(local.toDouble / sg.edgeCount > 0.6, s"${sg.name} lacks locality")
    }
  }

  test("TW proxy is the largest of the Table 4 trio (as in the paper)") {
    val byName = rows.map(r => r.graph -> r.nE).toMap
    assert(byName("TW-proxy") > byName("OK-proxy"))
    assert(byName("TW-proxy") > byName("IT-proxy"))
  }
}
