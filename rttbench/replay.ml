(* The service path of a job, replayed in process on a scratch spool:
   protocol encode and parse, instance parse, fingerprint, a journaled
   Queued record, cache lookup, then either validation of the hit or a
   solve followed by cache store, atomic result write and a journaled
   Done record. Each call is one span; this is the per-layer split of
   what the daemon does for a submit, measured from outside. *)

open Rtt_core
open Rtt_engine
open Rtt_service
open Rtt_net

type request = { body : string; budget : int; policy : Policy.t; rendered : string option }

let span_names =
  [
    ("core.io.parse", "core.io.parse.ms");
    ("engine.fingerprint", "engine.fingerprint.ms");
    ("engine.cache.lookup", "engine.cache.lookup.ms");
    ("engine.cache.store", "engine.cache.store.ms");
    ("service.work.write_result", "service.work.write_result.ms");
    ("service.journal.append", "service.journal.append.ms");
  ]

(* Returns whether every replayed answer checked out, the mean solve
   time of the cache misses, and the per-layer metrics. *)
let run ~dir (reqs : request array) =
  let spool = Filename.concat dir "replay" and cache = Filename.concat dir "replay-cache" in
  Files.mkdir_p spool;
  let journal = Journal.open_ ~spool in
  let hits = ref 0 and ok = ref true and codec_s = ref 0.0 in
  let saved = !Trace.on in
  Trace.on := true;
  Array.iteri
    (fun i r ->
      let (), dt =
        Outcome.timed (fun () ->
            ignore (Protocol.parse_request (Protocol.encode_request (Protocol.Submit { name = "r"; body = r.body })));
            let rendered = Option.value r.rendered ~default:"" in
            ignore (Protocol.parse_response (Protocol.encode_response (Protocol.Result { id = "r"; rendered }))))
      in
      codec_s := !codec_s +. dt;
      let p = Trace.span ~req:i "core.io.parse" (fun () -> Io.of_string r.body) in
      let id =
        Trace.span ~req:i "engine.fingerprint" (fun () ->
            Fingerprint.digest ~policy:r.policy ~alpha:Work.alpha p ~budget:r.budget)
      in
      let append event = Trace.span ~req:i "service.journal.append" (fun () -> Journal.append journal { Journal.job = id; event }) in
      append Journal.Queued;
      match Trace.span ~req:i "engine.cache.lookup" (fun () -> Cache.lookup ~dir:cache ~key:id) with
      | Some s ->
          incr hits;
          if Validate.check p (Work.claim_of s ~budget:r.budget) <> Ok () then ok := false
      | None -> (
          match Trace.span ~req:i "replay.solve" (fun () -> Engine.solve ~policy:r.policy ~alpha:Work.alpha p ~budget:r.budget) with
          | Error _ -> ok := false
          | Ok s ->
              let rendered = Work.render p s in
              if Option.fold ~none:false ~some:(( <> ) rendered) r.rendered then ok := false;
              Trace.span ~req:i "engine.cache.store" (fun () -> Cache.store ~dir:cache ~key:id s);
              Trace.span ~req:i "service.work.write_result" (fun () ->
                  Work.write_result ~rendered ~spool ~job:id ~attempt:1 ~cached:false s);
              append
                (Journal.Done
                   {
                     attempt = 1;
                     makespan = s.Engine.makespan;
                     budget_used = s.Engine.budget_used;
                     fuel = s.Engine.fuel_spent;
                     cached = false;
                   })))
    reqs;
  Trace.on := saved;
  Journal.close journal;
  Files.rm_rf spool;
  Files.rm_rf cache;
  let mean name =
    let s, k = Trace.total name in
    if k = 0 then 0.0 else Outcome.ms s /. float_of_int k
  in
  let n = float_of_int (max 1 (Array.length reqs)) in
  ( !ok,
    mean "replay.solve",
    List.map (fun (span, metric) -> Report.m metric "ms" (mean span)) span_names
    @ [
        Report.m "engine.cache.hit_ratio" "ratio" (float_of_int !hits /. n);
        Report.m "net.protocol.codec.us" "us" (1e6 *. !codec_s /. n);
      ] )
