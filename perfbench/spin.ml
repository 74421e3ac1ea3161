(* Keeps one CPU from going idle without competing for it: a loop of
   PAUSE instructions ([Domain.cpu_relax]), which leave the core's
   execution resources to its hyperthread sibling.  run.py starts one on
   each CPU at the lowest scheduling priority (SCHED_IDLE), so the kernel
   runs it only when nothing else is ready and preempts it as soon as a
   workload thread wakes.  Exits when its parent does, or after SECONDS.

     spin.exe SECONDS *)

let () =
  let parent = Unix.getppid () in
  let stop = Unix.gettimeofday () +. float_of_string Sys.argv.(1) in
  let rec loop i =
    if i land 0xffff <> 0 then begin
      Domain.cpu_relax ();
      loop (i + 1)
    end
    else if Unix.getppid () = parent && Unix.gettimeofday () < stop then loop (i + 1)
  in
  loop 1
