(** Report emission (text and JSON) and the ratcheted baseline: new
    violations fail, grandfathered ones are counted, fixed ones are
    flagged so the baseline only shrinks. *)

type entry = { b_rule : string; b_file : string; b_count : int }

type diff = {
  new_violations : Rules.violation list;
      (** Every site of a (rule, file) key whose current count exceeds
          its baselined count. *)
  grandfathered : int;
  stale : entry list;
      (** Baseline surplus per key: these were fixed; ratchet down. *)
}

val of_violations : Rules.violation list -> entry list

val diff : entry list -> Rules.violation list -> diff

val baseline_to_string : entry list -> string

val baseline_of_string : string -> (entry list, string) result

val text : result:Rules.result -> d:diff -> string

val json : result:Rules.result -> d:diff -> string
(** [{"new", "all", "suppressed", "summary"}]. *)
