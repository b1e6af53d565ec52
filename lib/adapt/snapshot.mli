(** Integrity-checked snapshot files for the daemon's persistent stores
    (the feedback {!Store} and the serving layer's plan cache).

    A snapshot is a magic line, a plain-text header line — format
    version, digest of the writing executable, digest and length of the
    body — and a body holding one [Marshal]-ed value. {!read} checks
    every header field, and the body's length and digest, before
    [Marshal] touches a single body byte: a truncated, bit-flipped,
    version-skewed or foreign file is rejected, never unmarshalled. *)

val write : magic:string -> version:int -> string -> 'a -> unit
(** [write ~magic ~version path v] writes [v] atomically (a [.tmp] file,
    then a rename).
    @raise Sys_error when the file cannot be written. *)

val read : magic:string -> version:int -> string -> 'a option
(** The value a {!write} with the same [magic] and [version] stored, or
    [None] — never an exception — when the file is missing or fails any
    check. Only the executable that wrote a snapshot accepts it, so the
    body is unmarshalled at the type it was written with; the caller
    must annotate that type. *)
