"""One module per CLI command, each holding the command's handler
`run(args)`: `hfgenus.cli.main` imports only the module of the command it
runs, so a job compiles no other command's code.  `help` holds the -h text,
imported only by a command line that asks for it."""
