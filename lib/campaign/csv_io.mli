(** CSV export of campaign results ([fi-cli campaign -o]), for offline
    analysis in other tools.  It is an export format only: a CSV carries
    no program image, so nothing reuses a scan by loading one — the
    campaign engine's result store, keyed by image digest, does that. *)

val save : string -> Scan.t -> unit
(** [save path scan] writes a header block and one row per experiment. *)

val load : string -> (Scan.t, string) result
(** Inverse of {!save}. *)

val to_string : Scan.t -> string
(** The serialised form, without touching the filesystem. *)

val of_string : string -> (Scan.t, string) result
