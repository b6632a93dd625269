package repro.perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Counts tasks and shuffle traffic per Spark job group, so one GraphX call
  * can be measured on its own: run it under a job group, then call
  * [[await]] with that group.
  *
  * Listener events arrive asynchronously. A call's job-end events are posted
  * before the call returns, and one listener queue delivers events in
  * posting order, so once the listener has seen the end of a marker job
  * submitted after the call, it has seen every event of the call's own jobs.
  */
final class ShuffleCounter extends SparkListener {
  import ShuffleCounter.Totals

  private val stageGroup = mutable.Map.empty[Int, String]
  private val jobGroup = mutable.Map.empty[Int, String]
  private val running = mutable.Map.empty[String, Int].withDefaultValue(0)
  private val totals = mutable.Map.empty[String, Totals].withDefaultValue(Totals())
  private val ended = mutable.Set.empty[String]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(ShuffleCounter.GroupKey))).foreach { grp =>
      jobGroup(e.jobId) = grp
      e.stageIds.foreach(stageGroup(_) = grp)
      running(grp) += 1
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (grp <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val t = totals(grp)
      totals(grp) = Totals(
        tasks = t.tasks + 1,
        shuffleWriteBytes = t.shuffleWriteBytes + m.shuffleWriteMetrics.bytesWritten,
        shuffleReadBytes = t.shuffleReadBytes + m.shuffleReadMetrics.totalBytesRead,
        shuffleRecords = t.shuffleRecords + m.shuffleWriteMetrics.recordsWritten)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobGroup.remove(e.jobId).foreach { grp =>
      running(grp) -= 1
      ended += grp
      notifyAll()
    }
  }

  /** Totals of the jobs run so far under `group`, once all their events are
    * in. Throws if the events do not arrive within `timeoutMs`.
    */
  def await(sc: SparkContext, group: String, timeoutMs: Long = 60000L): Totals = {
    val marker = s"$group/marker"
    sc.setJobGroup(marker, "event barrier", interruptOnCancel = false)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.currentTimeMillis() + timeoutMs
    synchronized {
      while (!ended.contains(marker)) {
        val left = deadline - System.currentTimeMillis()
        require(left > 0, s"listener saw no end of job group $marker within $timeoutMs ms")
        wait(left)
      }
      require(running(group) == 0, s"${running(group)} jobs of group $group never ended")
      totals(group)
    }
  }
}

object ShuffleCounter {
  /** Local property under which SparkContext.setJobGroup stores the group. */
  val GroupKey = "spark.jobGroup.id"

  final case class Totals(
      tasks: Long = 0,
      shuffleWriteBytes: Long = 0,
      shuffleReadBytes: Long = 0,
      shuffleRecords: Long = 0,
  )
}
