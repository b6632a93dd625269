package repro.bench

import repro.SparkSpec
import repro.harness.TableHarness

/** Shared plumbing for the per-table benches: proxy-graph scale control via
  * `BENCH_SCALE` (default 1.0) and a table printer whose output is captured
  * into `bench_output.txt` and transcribed into EXPERIMENTS.md.
  */
trait BenchBase extends SparkSpec {
  val benchScale: Double = sys.env.getOrElse("BENCH_SCALE", "1.0").toDouble

  def printTable(table: TableHarness.Table): Unit =
    println(s"\n(BENCH_SCALE=$benchScale)\n${TableHarness.render(table)}")
}
