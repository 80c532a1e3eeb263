(** Structured degradation reports.

    When execution under [--fail-policy partial|degrade] cannot serve
    a file from its index, each recovery step that fired is recorded
    as one entry: the file fell back to a §3.1 naive scan
    ({!Execute.run_naive}), or it was excluded because no path to its
    data remained.  Reports ride on {!Exec.Driver} outcomes and render
    under [--explain] and on stderr, so degraded results are never
    silently incomplete. *)

type action =
  | Naive_fallback
      (** indexed evaluation failed; answered by parsing the raw file *)
  | Excluded
      (** no index and no readable source — the file is not in the
          result *)

type t = { file : string; action : action; detail : string }

val make : file:string -> action -> string -> t
val action_to_string : action -> string
val pp : Format.formatter -> t -> unit

val pp_report : Format.formatter -> t list -> unit
(** The [degraded:] block (nothing for an empty list). *)
