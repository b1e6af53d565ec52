(** The daemon's transport: a listening socket feeding an {!Engine}.

    One thread accepts connections (polling a stop flag between short
    [select] waits, so {!request_stop} is honored within ~200ms); each
    connection gets a reader thread parsing line-delimited JSON requests
    ({!Wire}) and an exclusive write lock serializing responses from the
    worker domains. A request line longer than 1 MiB is skipped through
    its newline and answered with one [bad-request] error; the
    connection keeps serving. Responses may arrive out of request order — clients
    correlate by the echoed ["id"].

    Shutdown ({!stop}, or {!request_stop} from a signal handler followed
    by {!wait}) is a {e drain}: the listener closes first, every session
    already admitted is still answered on its open connection, and only
    then are the remaining connections shut down. *)

type address =
  | Unix_socket of string  (** path; stale socket files are replaced *)
  | Tcp of string * int  (** host, port (0 picks a free port) *)

val pp_address : Format.formatter -> address -> unit

type t

val start :
  ?config:Engine.config ->
  db:Conjunctive.Database.t ->
  address ->
  t
(** Bind, listen, spawn the engine's workers and the accept thread;
    returns immediately. @raise Unix.Unix_error when binding fails. *)

val bound_address : t -> address
(** The actual address (resolves port 0 to the kernel-assigned port). *)

val engine : t -> Engine.t

val request_stop : t -> unit
(** Flip the stop flag; safe to call from a signal handler. The accept
    loop notices within its 200ms poll. *)

val wait : t -> unit
(** Join the accept loop, drain the engine, close connections.
    Idempotent; returns when the daemon is fully stopped. *)

val stop : t -> unit
(** [request_stop] then [wait]. *)
