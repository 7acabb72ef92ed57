(** In-memory inode lifecycle: the inode cache, dinode read/write-back,
    truncation, allocation of fresh inodes, and the vnode glue that
    exposes an inode through the VFS ops record. *)

val iget : Types.fs -> int -> Types.inode
(** Find in the inode cache or read the dinode from disk (timed, through
    the metadata cache).  Bumps the reference count and registers the
    vnode's pageout flusher on first load.
    Raises [ENOENT] if the on-disk inode is free. *)

val iget_new :
  Types.fs -> dir_hint:int -> kind:Dinode.kind -> Types.inode
(** Allocate a fresh on-disk inode ([nlink] 0 — the caller links it),
    enter it in the cache with one reference. *)

val iput : Types.fs -> Types.inode -> unit
(** Drop a reference.  On the last reference of an unlinked file, the
    storage is released (truncate + free the inode). *)

val iupdat : Types.fs -> Types.inode -> sync:bool -> unit
(** Write the dinode back (through the metadata cache; [sync] forces it
    to disk now, as directory operations require). *)

val itrunc : Types.fs -> Types.inode -> unit
(** Truncate to length 0: drop the delayed-write run, wait
    out in-flight writes, invalidate cached pages, free every data and
    indirect block. *)

val fsync_inode : Types.fs -> Types.inode -> unit
(** fsync(2): push delayed writes, wait for all I/O, write the inode
    and any dirty metadata back synchronously. *)

val vnode_of : Types.fs -> Types.inode -> Vfs.Vnode.t
(** The (cached) vnode exposing this inode via {!Vfs.Vnode.ops}. *)
