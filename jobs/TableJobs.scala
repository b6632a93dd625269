package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.harness.TableHarness._

/** Shared plumbing for the per-table spark-submit entry points.
  *
  * Usage: `spark-submit --class repro.jobs.Table4Job <jar> [scale]`
  * where `scale` (default 1.0) linearly scales the proxy-graph sizes.
  */
object TableJobs {

  def withSpark[A](appName: String)(body: SparkSession => A): A = {
    val builder = SparkSession.builder()
      .appName(appName)
      .config("spark.sql.shuffle.partitions", "64")
    // spark-submit sets spark.master itself; default to local[*] when the
    // job is launched directly (e.g. sbt runMain)
    if (!sys.props.contains("spark.master") && !sys.env.contains("MASTER"))
      builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    val spark = builder.getOrCreate()
    try body(spark)
    finally spark.stop()
  }

  def scaleArg(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(1.0)
}

/** An entry point that prints one table as `TableHarness` defines it, the
  * same table its `bench/` suite prints.
  */
sealed abstract class TableJob(appName: String, table: (SparkSession, Double) => Table) {
  def main(args: Array[String]): Unit =
    TableJobs.withSpark(appName)(spark => println(render(table(spark, TableJobs.scaleArg(args)))))
}

/** Table 1: empirical runtime scaling over k and |E| for all partitioners. */
object Table1Job extends TableJob("hep-table1", table1)

/** Table 2: runtime of the τ → memory-footprint pre-computation. */
object Table2Job extends TableJob("hep-table2", table2)

/** Table 3: statistics of the synthetic proxy datasets. */
object Table3Job extends TableJob("hep-table3", table3)

/** Table 4: partitioning time, replication factor and GraphX processing. */
object Table4Job extends TableJob("hep-table4", table4)

/** Table 5: HEP vertex balancing (std/avg vertex replicas per partition). */
object Table5Job extends TableJob("hep-table5", table5)

/** Table 6: simulated paging of NE++ under shrinking memory limits. */
object Table6Job extends TableJob("hep-table6", table6)
