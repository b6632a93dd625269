package repro.core

import java.util.concurrent.{CountDownLatch, Executors, ThreadFactory}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

/** The worker pool of HEP's two per-vertex phases, the sharded CSR build
  * ([[PrunedCsr.build]]) and the lazy clean-up ([[NePlusPlus]]).
  *
  * A parallel call runs on [[count]] threads: the calling thread and up to
  * `count − 1` daemon helpers shared by every caller. Tasks are handed out in
  * ascending order to whichever thread is free, and the caller claims tasks
  * too, so a call completes even while every helper serves another call.
  * Tasks must not allocate: the benchmark's `alloc_bytes` counts only the
  * calling thread, so memory allocated by a helper would go unmeasured.
  */
private[core] object Workers {

  /** Threads per parallel call, the caller included. */
  val count: Int = Runtime.getRuntime.availableProcessors

  /** Least work, in column entries read, that a phase splits across the
    * workers; below it, handing tasks to the helpers costs more than it
    * saves. A property of the input: the low-degree adjacency for the build,
    * the valid adjacency of the members still in `S_i` for a clean-up round.
    */
  final val MinParallelWork = 1 << 15

  private lazy val helpers = Executors.newFixedThreadPool(count - 1, new ThreadFactory {
    private val made = new AtomicInteger
    override def newThread(r: Runnable): Thread = {
      val t = new Thread(r, s"hep-worker-${made.incrementAndGet()}")
      t.setDaemon(true)
      t
    }
  })

  /** Runs `task(0)`, …, `task(tasks − 1)`, each exactly once, and returns
    * when all have finished. The first exception a task throws is rethrown
    * here, after the others have finished.
    */
  def run(tasks: Int)(task: Int => Unit): Unit =
    if (count == 1 || tasks <= 1) {
      var t = 0
      while (t < tasks) { task(t); t += 1 }
    } else {
      val job = new Job(tasks, task)
      var h = math.min(count, tasks) - 1
      while (h > 0) { helpers.execute(job); h -= 1 }
      job.run()
      job.await()
    }

  private final class Job(tasks: Int, task: Int => Unit) extends Runnable {
    private val next = new AtomicInteger
    private val finished = new CountDownLatch(tasks)
    private val failure = new AtomicReference[Throwable]

    override def run(): Unit = {
      var t = next.getAndIncrement()
      while (t < tasks) {
        try task(t)
        catch { case e: Throwable => failure.compareAndSet(null, e) }
        finally finished.countDown()
        t = next.getAndIncrement()
      }
    }

    def await(): Unit = {
      finished.await()
      val e = failure.get
      if (e ne null) throw e
    }
  }
}
